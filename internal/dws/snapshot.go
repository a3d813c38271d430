package dws

import (
	"fmt"

	"dwst/internal/trace"
)

// snapshot is the node-local state of one consistent-state protocol
// attempt (Figure 8): the double ping-pong with every node that hosts
// matching receives for this node's active sends, tagged with the root's
// snapshot epoch so aborted attempts leave no residue.
type snapshot struct {
	epoch int
	// outstanding[peer] is the next pong round expected from the peer
	// (1 or 2); entries are removed after round 2.
	outstanding map[int]int
	acked       bool
}

// BeginSnapshot handles requestConsistentState: freeze the transition
// system, then run a double ping-pong with every peer node that may still
// owe or expect messages for our active sends. When no synchronization is
// needed the node acknowledges immediately.
//
// Epochs make the handler idempotent and restartable: a request for an
// epoch this node already entered is a duplicate and ignored; a request
// for a newer epoch while still frozen (the abort of the previous attempt
// was lost) restarts the ping-pong under the new epoch without thawing in
// between.
func (n *Node) BeginSnapshot(epoch int) {
	if epoch <= n.lastEpoch {
		return // duplicate or stale attempt
	}
	n.lastEpoch = epoch
	n.frozen = true
	n.snap = &snapshot{epoch: epoch, outstanding: make(map[int]int)}

	// Ping-pong peers: every node we sent wait-state messages to since the
	// last snapshot (a superset of the paper's "nodes hosting matching
	// receives for our active sends" — the superset also flushes
	// acknowledgements that are still in transit although the local send
	// already completed), plus the hosts of currently active sends. Dead
	// peers are skipped: they can never pong, and the root accounts for
	// their ranks as unknown. So is this node itself: it consumes its own
	// messages before every entry point returns, so nothing it sent itself
	// can be in transit now (the ping-pong would only prove an empty link
	// empty).
	ping := func(peer int) {
		if n.deadPeers[peer] || peer == n.id {
			return
		}
		if _, ok := n.snap.outstanding[peer]; !ok {
			n.snap.outstanding[peer] = 1
			n.sendPeer(peer, Ping{Round: 1, Epoch: epoch, FromNode: n.id})
		}
	}
	for peer := range n.dirty {
		ping(peer)
	}
	for _, rs := range n.ranks {
		for _, o := range rs.ops.stored() {
			if o == nil || !o.op.Kind.IsSend() || !o.active || o.commComplete {
				continue
			}
			ping(n.nodeFor(o.op.PeerWorld))
		}
	}
	n.maybeAckConsistent()
}

// handlePong advances the double ping-pong with one peer.
func (n *Node) handlePong(m Pong) {
	if n.snap == nil || m.Epoch != n.snap.epoch {
		return // stale pong from an aborted attempt
	}
	round, ok := n.snap.outstanding[m.FromNode]
	if !ok || round != m.Round {
		return
	}
	if m.Round == 1 {
		n.snap.outstanding[m.FromNode] = 2
		n.sendPeer(m.FromNode, Ping{Round: 2, Epoch: m.Epoch, FromNode: n.id})
		return
	}
	delete(n.snap.outstanding, m.FromNode)
	n.maybeAckConsistent()
}

func (n *Node) maybeAckConsistent() {
	if n.snap == nil || n.snap.acked || len(n.snap.outstanding) > 0 {
		return
	}
	n.snap.acked = true
	n.out.Up(AckConsistentState{Node: n.id, Epoch: n.snap.epoch})
}

// Abort handles abortSnapshot: a snapshot attempt missed its deadline at
// the root; resume the transition system. Aborts for other epochs (already
// superseded) are ignored.
func (n *Node) Abort(epoch int) {
	if n.snap == nil || n.snap.epoch != epoch {
		return
	}
	// Keep the dirty set: the aborted ping-pong did not prove our earlier
	// messages were consumed, so the retry must ping those peers again.
	n.resume(false)
	n.drainSelf()
}

// OnPeerDown marks a first-layer peer as dead: pending and future snapshot
// synchronization skips it (a dead peer never pongs, which would otherwise
// wedge every snapshot attempt forever).
func (n *Node) OnPeerDown(node int) {
	n.deadPeers[node] = true
	delete(n.dirty, node)
	if n.snap != nil {
		if _, ok := n.snap.outstanding[node]; ok {
			delete(n.snap.outstanding, node)
			n.maybeAckConsistent()
		}
	}
}

// BuildReports handles requestWaits: describe the wait-for condition of
// every hosted rank in the frozen state, then resume the transition system
// (processing any events deferred during the snapshot). The bool result is
// false when the node is not frozen under the requested epoch (the request
// is stale); no report must be sent then.
func (n *Node) BuildReports(epoch int) (WaitReport, bool) {
	if n.snap == nil || n.snap.epoch != epoch {
		return WaitReport{}, false
	}
	rep := WaitReport{Node: n.id, Epoch: epoch, UnmatchedSends: n.UnmatchedSends()}
	for _, rs := range n.ranks {
		rep.Entries = append(rep.Entries, n.entryFor(rs))
	}
	n.resume(true)
	n.drainSelf()
	return rep, true
}

// resume thaws the transition system after a completed or aborted
// snapshot. After a completed snapshot the dirty set is cleared first:
// everything sent before it was flushed by the ping-pong, and replaying
// the deferred events below re-marks any peers they touch.
func (n *Node) resume(clearDirty bool) {
	n.frozen = false
	n.snap = nil
	if clearDirty {
		n.dirty = make(map[int]bool)
	}
	for _, rs := range n.ranks {
		n.tryAdvance(rs)
	}
	deferred := n.deferred
	n.deferred = nil
	for i := range deferred {
		n.processEvent(&deferred[i])
	}
}

// entryFor classifies one rank in the frozen state and, when blocked,
// derives its wait-for condition from the distributed knowledge this node
// holds (matching state, handshake flags); conditions needing group
// knowledge carry markers the root expands.
func (n *Node) entryFor(rs *rankState) WaitEntry {
	e := WaitEntry{Rank: rs.rank, State: Running, MatchedSendProc: -1}
	if rs.crashed {
		e.State = Crashed
		e.LastCall = rs.lastCall
		e.Desc = fmt.Sprintf("rank %d crashed after %d MPI calls", rs.rank, rs.lastCall)
		return e
	}
	o := rs.ops.get(rs.l)
	if o == nil {
		if rs.done {
			e.State = Finished
			return e
		}
		// Between calls (or its next event still in flight): not blocked,
		// and the root's progress watchdog may find it stalled.
		e.BetweenCalls = true
		return e
	}
	if o.op.Kind == trace.Finalize {
		e.State = Finished
		return e
	}
	if n.canAdvance(rs, o) {
		return e // a transition applies: not blocked
	}

	e.State = Blocked
	e.Kind = o.op.Kind
	e.TS = o.op.TS
	e.Comm = o.op.Comm
	e.Tag = o.op.Tag
	kind := o.op.Kind

	switch {
	case kind.IsSend():
		e.Sem = SemAnd
		e.Targets = []int{o.op.PeerWorld}
		e.Desc = fmt.Sprintf("%v waits for a matching receive on rank %d", o.op.Describe(), o.op.PeerWorld)

	case kind.IsRecv():
		n.p2pWaitTargets(o, &e)
		if o.op.Peer == trace.AnySource {
			e.IsWildcardRecv = true
			if o.matched {
				e.MatchedSendProc = o.peerProc
				e.MatchedSendTS = o.peerTS
			}
		}
		switch {
		case o.matched:
			e.Desc = fmt.Sprintf("%v waits for its matching send on rank %d to be active", o.op.Describe(), o.peerProc)
		case o.op.Peer == trace.AnySource && !o.resolved:
			e.Desc = fmt.Sprintf("%v waits for a send from ANY process (OR)", o.op.Describe())
		default:
			e.Desc = fmt.Sprintf("%v waits for a matching send", o.op.Describe())
		}

	case kind.IsCollective():
		e.Sem = SemAnd
		e.IsColl = true
		e.CollComm = o.op.Comm
		e.CollWave = o.wave
		e.Desc = fmt.Sprintf("%v waits for all processes of communicator %d to join wave %d",
			o.op.Describe(), o.op.Comm, o.wave)

	case kind.IsCompletion():
		if kind.IsWaitAnySemantics() {
			e.Sem = SemOr
		} else {
			e.Sem = SemAnd
		}
		for _, rq := range o.op.Reqs {
			co, known := rs.request(rq)
			if !known {
				continue
			}
			if co == nil {
				if kind.IsWaitAnySemantics() {
					// Should have advanced; defensive.
					e.State = Running
					return e
				}
				continue
			}
			var sub WaitEntry
			sub.Rank = rs.rank
			if co.op.Kind.IsSend() {
				e.Targets = appendUnique(e.Targets, co.op.PeerWorld)
			} else {
				n.p2pWaitTargets(co, &sub)
				for _, t := range sub.Targets {
					e.Targets = appendUnique(e.Targets, t)
				}
				e.WildComms = append(e.WildComms, sub.WildComms...)
				e.ResolvedSrcs = append(e.ResolvedSrcs, sub.ResolvedSrcs...)
			}
		}
		e.Desc = fmt.Sprintf("%v waits for associated communications", o.op.Describe())

	default:
		e.Sem = SemAnd
		e.Desc = fmt.Sprintf("%v blocked", o.op.Describe())
	}
	return e
}

// p2pWaitTargets fills the wait-for condition of a (possibly wildcard)
// receive or probe operation.
func (n *Node) p2pWaitTargets(o *opState, e *WaitEntry) {
	switch {
	case o.matched:
		e.Sem = SemAnd
		e.Targets = appendUnique(e.Targets, o.peerProc)
	case o.op.Peer != trace.AnySource:
		e.Sem = SemAnd
		e.Targets = appendUnique(e.Targets, o.op.PeerWorld)
	case o.resolved:
		// Wildcard resolved by a status but the send has not arrived here
		// yet; the root translates the group rank.
		e.Sem = SemAnd
		e.ResolvedSrcs = append(e.ResolvedSrcs, GroupRef{Comm: o.op.Comm, Src: o.resolvedGr})
	default:
		e.Sem = SemOr
		c := o.op.Comm
		e.WildComms = append(e.WildComms, c)
	}
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
