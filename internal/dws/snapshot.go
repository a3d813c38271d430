package dws

import (
	"strconv"
	"unsafe"

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
			n.sendPeer(peer, PeerMsg{Type: PeerPing, Round: 1, Epoch: epoch, FromNode: n.id})
		}
	}
	for peer := range n.dirty {
		ping(peer)
	}
	for i := range n.ranks {
		for _, o := range n.ranks[i].ops.stored() {
			if o == nil || !o.op.Kind.IsSend() || !o.active || o.commComplete {
				continue
			}
			ping(n.nodeFor(o.op.PeerWorld))
		}
	}
	n.maybeAckConsistent()
}

// handlePong advances the double ping-pong with one peer.
func (n *Node) handlePong(m *PeerMsg) {
	if n.snap == nil || m.Epoch != n.snap.epoch {
		return // stale pong from an aborted attempt
	}
	round, ok := n.snap.outstanding[m.FromNode]
	if !ok || round != m.Round {
		return
	}
	if m.Round == 1 {
		n.snap.outstanding[m.FromNode] = 2
		n.sendPeer(m.FromNode, PeerMsg{Type: PeerPing, Round: 2, Epoch: m.Epoch, FromNode: n.id})
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
	setKey(&n.deadPeers, node, true)
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
	rep := WaitReport{Node: n.id, Epoch: epoch, UnmatchedSends: n.UnmatchedSends(),
		Entries: make([]WaitEntry, len(n.ranks))}
	buf := reportBuf{
		desc: make([]byte, 0, descBytes*len(n.ranks)),
		ints: make([]int, 0, len(n.ranks)),
	}
	ends := make([]int, len(n.ranks))
	for i := range n.ranks {
		rep.Entries[i] = n.entryFor(&n.ranks[i], &buf)
		ends[i] = len(buf.desc)
	}
	// One string backs every description of the report: the buffer itself,
	// which nothing writes again.
	descs, start := unsafe.String(unsafe.SliceData(buf.desc), len(buf.desc)), 0
	for i, end := range ends {
		rep.Entries[i].Desc = descs[start:end]
		start = end
	}
	n.resume(true)
	n.drainSelf()
	return rep, true
}

// descBytes is the room BuildReports makes per rank for its description:
// enough for a blocked send or receive without a call site; longer ones
// grow the buffer.
const descBytes = 96

// reportBuf is the backing store the entries of one wait report share:
// entryFor appends each description to desc (BuildReports slices them out
// of one string) and takes single-target lists from ints.
type reportBuf struct {
	desc []byte
	ints []int
}

// target returns the one-element target list [t].
func (b *reportBuf) target(t int) []int {
	b.ints = append(b.ints, t)
	return b.ints[len(b.ints)-1 : len(b.ints) : len(b.ints)]
}

// resume thaws the transition system after a completed or aborted
// snapshot. After a completed snapshot the dirty set is cleared first:
// everything sent before it was flushed by the ping-pong, and replaying
// the deferred events below re-marks any peers they touch.
func (n *Node) resume(clearDirty bool) {
	n.frozen = false
	n.snap = nil
	if clearDirty {
		clear(n.dirty)
		for _, p := range n.pendDest {
			p.marked = false // the cycle's next wait-state message marks again
		}
	}
	for i := range n.ranks {
		n.tryAdvance(&n.ranks[i])
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
// knowledge carry markers the root expands. The entry's description is
// appended to buf.desc; the entry's Desc stays for the caller to set.
func (n *Node) entryFor(rs *rankState, buf *reportBuf) WaitEntry {
	e := WaitEntry{Rank: rs.rank, State: Running, MatchedSendProc: -1}
	if rs.crashed {
		e.State = Crashed
		e.LastCall = rs.lastCall
		buf.desc = appendCrashed(buf.desc, rs.rank, rs.lastCall)
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
	d := o.op.AppendDescribe(buf.desc)

	switch {
	case kind.IsSend():
		e.Sem = SemAnd
		e.Targets = buf.target(o.op.PeerWorld)
		d = append(d, " waits for a matching receive on rank "...)
		d = strconv.AppendInt(d, int64(o.op.PeerWorld), 10)

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
			d = append(d, " waits for its matching send on rank "...)
			d = strconv.AppendInt(d, int64(o.peerProc), 10)
			d = append(d, " to be active"...)
		case o.op.Peer == trace.AnySource && !o.resolved:
			d = append(d, " waits for a send from ANY process (OR)"...)
		default:
			d = append(d, " waits for a matching send"...)
		}

	case kind.IsCollective():
		e.Sem = SemAnd
		e.IsColl = true
		e.CollComm = o.op.Comm
		e.CollWave = o.wave
		d = append(d, " waits for all processes of communicator "...)
		d = strconv.AppendInt(d, int64(o.op.Comm), 10)
		d = append(d, " to join wave "...)
		d = strconv.AppendInt(d, int64(o.wave), 10)

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
					// Should have advanced; defensive (and undescribed).
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
		d = append(d, " waits for associated communications"...)

	default:
		e.Sem = SemAnd
		d = append(d, " blocked"...)
	}
	buf.desc = d
	return e
}

// appendCrashed appends the description of a crashed rank.
func appendCrashed(b []byte, rank, lastCall int) []byte {
	b = append(b, "rank "...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, " crashed after "...)
	b = strconv.AppendInt(b, int64(lastCall), 10)
	return append(b, " MPI calls"...)
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
