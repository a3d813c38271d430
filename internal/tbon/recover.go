package tbon

import (
	"time"

	"dwst/internal/fault"
)

// This file implements exact recovery of crashed first-layer nodes: instead
// of degrading the report (Unknown ranks), the supervisor respawns a
// replacement node in the dead node's slot and the tool layer rebuilds its
// protocol state by deterministic journal replay (see internal/journal and
// internal/core). The substrate's part of the contract:
//
//   - the replacement gets a FRESH global id: every directed link to or
//     from it is a new link with fresh sequence numbers and fresh fault
//     streams, so receiver resequencer state of the dead incarnation can
//     never conflict with the replacement's traffic;
//   - it ADOPTS the dead node's rank mailbox (events channel): events the
//     dead incarnation never processed stay queued in order, and Inject
//     blocks through the handover instead of dropping events;
//   - every unacknowledged frame addressed to or sent by the dead
//     incarnation migrates onto the corresponding fresh link in sequence
//     order (transport.migrateTo). Migrated inbound frames are exactly the
//     ones the dead node never processed (acks are synchronous with
//     dispatch), so the replacement sees them exactly once. Migrated
//     outbound frames may race copies already sitting in live receivers'
//     pump queues — at-least-once across the incarnation boundary — which
//     the protocol layers absorb (per-peer round matching in the snapshot
//     ping-pong, (origin, seq)/coverage dedup at the root, per-sender
//     timestamp dedup for PassSend).

// recoveryEnabled reports whether crashed first-layer nodes are respawned
// instead of degraded: requires a fault plan with Recover and the reliable
// link layer (frame migration is what makes the handover lossless).
func (t *Tree) recoveryEnabled() bool {
	return t.cfg.Fault != nil && t.cfg.Fault.Recover && t.transport != nil
}

// faultLink returns the fault decider for one receiving (node, class) link
// bundle, or nil when no fault plan is active. Streams are a pure function
// of (seed, gid, class), so a replacement's fresh gid deterministically
// derives fresh streams.
func (t *Tree) faultLink(gid int, class fault.Class) *fault.Link {
	if t.injector == nil {
		return nil
	}
	return t.injector.Link(gid, class)
}

// respawn rebuilds a crashed first-layer node in place. It returns false
// when exact recovery is impossible — the dead node's loop never exited,
// so its final dispatch (and therefore the journal) cannot be trusted —
// and the caller falls back to honest degradation.
//
// Runs on the supervisor goroutine; reap has already Killed the node.
func (t *Tree) respawn(old *Node) bool {
	// Wait for the old loop to finish its final dispatch: the write-ahead
	// journal is complete only after the loop exits. Kill() was already
	// called, so a healthy-but-slow node exits at its next select; a loop
	// wedged past the death-declaration window is not replayable.
	select {
	case <-old.loopDone:
	case <-time.After(t.cfg.Fault.DeadAfterInterval()):
		return false
	case <-t.quit:
		return false
	}

	t.topo.Lock()
	gid := t.nextGid
	t.nextGid++
	neu := &Node{
		tree:      t,
		layer:     0,
		index:     old.index,
		gid:       gid,
		local:     true,       // recovery is chan-mode only: replacements are in-process
		events:    old.events, // adopt the slot mailbox: per-rank FIFO survives
		control:   make(chan envelope, 16),
		dead:      make(chan struct{}),
		rsq:       make(map[linkKey]*reseq),
		loopDone:  make(chan struct{}),
		respawned: make(chan struct{}),
	}
	neu.fromBelow = newQueue(t, t.faultLink(gid, fault.UpLink), govUp)
	neu.fromAbove = newQueue(t, t.faultLink(gid, fault.DownLink), govDown)
	neu.fromPeer = newQueue(t, t.faultLink(gid, fault.PeerLink), govPeer)
	// Arm the liveness clock before the supervisor can see the node, or it
	// would be declared dead while still replaying.
	neu.lastBeat.Store(time.Now().UnixNano())
	neu.parent = old.parent
	if neu.parent != nil {
		for i, c := range neu.parent.children {
			if c == old {
				neu.parent.children[i] = neu
			}
		}
	}
	t.layers[0][old.index] = neu
	for r, ln := range t.leafNode {
		if ln == old {
			t.leafNode[r] = neu
		}
	}
	t.transport.migrateTo(old, neu)
	t.topo.Unlock()

	// Rebuild the tool layer. The handler factory performs journal replay
	// synchronously, before the loop starts, so no live message can
	// interleave with replayed ones. Messages arriving meanwhile buffer in
	// the fresh queues.
	neu.handler = t.mkHandler(neu)
	t.arm(neu)
	neu.lastBeat.Store(time.Now().UnixNano())
	t.wg.Add(1)
	go neu.loop()
	t.recoveries.Add(1)
	close(old.respawned)
	if t.cfg.OnNodeRecovered != nil {
		t.cfg.OnNodeRecovered(neu)
	}
	return true
}
