package tbon

import (
	"fmt"
	"slices"
	"time"
)

// This file implements tool-node crash injection and reaping. A node is
// reaped because it was killed, never because it went quiet: Kill closes
// the node's dead channel and, on a tree with a fault plan, wakes the
// supervisor. Reaping waits until the node has stopped dispatching
// (bounded by wedgedAfter), then respawns it (first layer, with recovery)
// or splices it out of the topology: children reattach to the grandparent,
// unacknowledged frames migrate to the new links, and the death is
// reported via Config.OnNodeDown. A crashed node's link pumps keep
// draining so senders never block on it. Root crashes are not supported —
// the paper's model (and ours) keeps the root alive, and NewNet refuses a
// fault plan that schedules its death. TCP trees carry no fault plan, so the
// placeholders the coordinator kills when it degrades a worker are never
// reaped here.

// wedgedAfter bounds how long reaping waits for a killed node to stop
// dispatching. A step still running past it is wedged mid-dispatch, and
// holds its worker: its slot degrades instead of being respawned (DESIGN
// §9).
const wedgedAfter = time.Second

// Kill crashes the node immediately: it stops processing messages
// and, on a tree with a fault plan, the supervisor reaps it. Used by a
// node's planned crash (step), the TCP coordinator's degrade and tests.
func (n *Node) Kill() {
	if n.IsRoot() {
		return // partitioning the root is out of scope
	}
	n.deadOnce.Do(func() {
		n.killed.Store(true)
		close(n.lifecycle().dead)
		n.raise() // a placeholder or an unarmed node stays queued: no-op
		if n.rank != nil {
			n.rank.release(false) // held ranks learn of the death
		}
		select {
		case n.tree.kills <- struct{}{}: // nil without a fault plan: never ready
		default:
		}
	})
}

// Dead reports whether the node has crashed.
func (n *Node) Dead() bool { return n.killed.Load() }

// planCrashes hands each planned crash to its node in plan order, where
// the node's steps count it down (step); a respawned replacement takes the
// slot's rest (respawn). A crash of the root or of a node outside the tree
// is refused, not ignored.
func (t *Tree) planCrashes() error {
	layers := t.shape.Load().layers
	for _, c := range t.cfg.Fault.Crashes {
		if c.Layer < 0 || c.Layer >= len(layers)-1 || c.Index < 0 || c.Index >= len(layers[c.Layer]) {
			return fmt.Errorf("fault plan crashes tool node %d on layer %d: no such node below the root (%d layers, the first %d wide)",
				c.Index, c.Layer, len(layers), len(layers[0]))
		}
		n := layers[c.Layer][c.Index]
		n.crashes = append(n.crashes, c.AfterEnvelopes)
	}
	return nil
}

// supervise reaps killed nodes: each wake (one per Kill, coalesced) scans
// the published topology for local nodes that are dead and not yet reaped.
func (t *Tree) supervise() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case <-t.kills:
		}
		for _, layer := range t.shape.Load().layers {
			for _, n := range layer {
				if n.local && n.Dead() {
					t.reap(n)
				}
			}
		}
	}
}

// reap handles one node death, once: after the node stopped
// dispatching it respawns the node or splices it out of the topology,
// migrates unacknowledged frames, and notifies the tool. Reaping a live
// node (tests do) kills it first.
func (t *Tree) reap(n *Node) {
	if !n.reaped.CompareAndSwap(false, true) {
		return
	}
	n.Kill()
	stopped := false
	select {
	case <-n.lifecycle().stopped:
		stopped = true
	case <-time.After(wedgedAfter):
	case <-t.quit:
	}

	// First-layer nodes are respawned exactly when recovery is enabled and
	// their final dispatch is complete (the write-ahead journal is whole
	// only then); the slot keeps working and nothing below runs. A wedged
	// step falls through to honest degradation, waking any injector
	// blocked on the slot's fate first.
	if n.layer == 0 && stopped && t.recoveryEnabled() {
		t.respawn(n)
		return
	}
	close(n.lifecycle().respawned)

	// Remove n from its parent, adopt n's children in its place.
	t.retopo(func(tp *topology, tr *transport) {
		parent := tp.up[n.layer][n.index]
		orphans := tp.down[n.layer][n.index]
		tp.down[n.layer][n.index] = nil
		siblings := slices.DeleteFunc(tp.down[parent.layer][parent.index], func(c *Node) bool { return c == n })
		tp.down[parent.layer][parent.index] = append(siblings, orphans...)
		for _, c := range orphans {
			tp.up[c.layer][c.index] = parent
			if tr != nil {
				tr.redirect(c, n, parent)
			}
		}
	})

	if t.transport != nil {
		t.transport.dropLinksTo(n.gid)
	}
	if t.cfg.OnNodeDown != nil {
		t.cfg.OnNodeDown(n)
	}
}
