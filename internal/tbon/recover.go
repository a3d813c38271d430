package tbon

import "dwst/internal/fault"

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
//   - it ADOPTS the dead node's rank inbox: events the dead incarnation
//     never processed stay queued in order, and InjectEvent waits through
//     the handover instead of dropping events;
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

// respawn rebuilds a crashed first-layer node in place. Runs on the
// supervisor goroutine once reap saw the old node stop dispatching, so the
// write-ahead journal holds its final dispatch.
func (t *Tree) respawn(old *Node) {
	var neu *Node
	t.retopo(func(tp *topology, tr *transport) {
		// Recovery is chan-mode only: replacements are in-process.
		neu = t.newNode(0, old.index, tp.nextGid, true)
		neu.rank = old.rank // adopt the slot's inbox: per-rank FIFO survives
		neu.crashes = old.crashes
		tp.place(neu)
		tr.migrateTo(old, neu)
	})

	// Rebuild the tool layer. The handler factory performs journal replay
	// synchronously, before the first step, so no live message can
	// interleave with replayed ones. Messages arriving meanwhile buffer in
	// the fresh queues, and their raises find the node not yet armed.
	neu.handler = t.mkHandler(neu)
	t.arm(neu)
	neu.rank.rebind(neu)
	t.rq.push(neu)
	t.recoveries.Add(1)
	close(old.lifecycle().respawned)
	if t.cfg.OnNodeRecovered != nil {
		t.cfg.OnNodeRecovered(neu)
	}
}
