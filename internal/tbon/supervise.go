package tbon

import (
	"slices"
	"time"
)

// This file implements tool-node crash injection and heartbeat
// supervision. A crashed node's loop exits, so it stops processing and
// acknowledging messages; its link pumps keep draining so senders never
// block on a dead node. The supervisor notices the silent liveness clock,
// declares the node dead, splices it out of the topology (children
// reattach to the grandparent, unacknowledged frames migrate to the new
// links) and reports the death via Config.OnNodeDown. Root crashes are not
// supported — the paper's model (and ours) keeps the root alive, and the
// fault plane refuses to schedule its death.

// Kill crashes the node immediately: its loop stops processing messages.
// Used by crash timers and tests; recovery is the supervisor's job.
func (n *Node) Kill() {
	if n.IsRoot() {
		return // partitioning the root is out of scope
	}
	n.deadOnce.Do(func() { close(n.dead) })
}

// Dead reports whether the node has crashed.
func (n *Node) Dead() bool {
	select {
	case <-n.dead:
		return true
	default:
		return false
	}
}

// startCrashTimers schedules the plan's node crashes.
func (t *Tree) startCrashTimers() {
	layers := t.shape.Load().layers
	for _, c := range t.cfg.Fault.Crashes {
		if c.Layer < 0 || c.Layer >= len(layers) || c.Index < 0 || c.Index >= len(layers[c.Layer]) {
			continue
		}
		n := layers[c.Layer][c.Index]
		after := c.After
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			select {
			case <-time.After(after):
				n.Kill()
			case <-t.quit:
			}
		}()
	}
}

// supervise watches every non-root node's liveness clock and reaps nodes
// that have been silent for the plan's DeadAfter interval.
func (t *Tree) supervise() {
	defer t.wg.Done()
	plan := t.cfg.Fault
	deadAfter := plan.DeadAfterInterval()
	ticker := time.NewTicker(plan.HeartbeatInterval())
	defer ticker.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for _, layer := range t.shape.Load().layers {
			for _, n := range layer {
				if n.IsRoot() || n.reaped.Load() {
					continue
				}
				if now-n.lastBeat.Load() > int64(deadAfter) {
					t.reap(n)
				}
			}
		}
	}
}

// reap handles one detected node death: it splices the node out of the
// topology, migrates unacknowledged frames, and notifies the tool.
func (t *Tree) reap(n *Node) {
	if !n.reaped.CompareAndSwap(false, true) {
		return
	}
	n.Kill() // ensure the loop is really stopped (heartbeat loss ⇒ crash)

	// First-layer nodes are respawned exactly when recovery is enabled;
	// on success the slot keeps working and nothing below runs. A failed
	// respawn (wedged loop) falls through to honest degradation, waking
	// any injector blocked on the slot's fate first.
	if n.layer == 0 && t.recoveryEnabled() && t.respawn(n) {
		return
	}
	close(n.respawned)

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
