package dws

import (
	"maps"
	"slices"

	"dwst/internal/collmatch"
	"dwst/internal/p2pmatch"
)

// This file implements the node side of the recovery plane: a Node can be
// checkpointed into an opaque Memento and later restored into a freshly
// constructed replacement, which then deterministically replays the journal
// suffix recorded after the checkpoint (see internal/journal). Replay runs
// with the Discard output surface: every message a replayed input would
// emit was already emitted by the crashed incarnation and sits in the
// reliable transport's outboxes, so re-sending would only create duplicate
// traffic (the peer protocol tolerates it, but there is no reason to).
//
// Snapshot-protocol state (frozen, deferred, snap) is deliberately NOT
// part of the memento: checkpoints are refused while a snapshot is in
// flight, and a crash mid-snapshot aborts the epoch at the root — the
// retried epoch re-runs the ping-pong against the restored node.

// Memento is an opaque deep copy of a Node's recoverable state. It shares
// no mutable structure with the node it was taken from, and Restore copies
// again, so one memento survives multiple restores (repeated crashes of
// the same slot between checkpoints).
type Memento struct {
	ranks       []rankState
	match       *p2pmatch.Engine
	coll        *collmatch.Leaf
	collOps     map[collKey][]opRef
	ackedEarly  map[collKey]bool
	lastEpoch   int
	deadPeers   map[int]bool
	readySent   map[collKey][]collmatch.Ready
	membersSent []collmatch.Member
	deadRanks   map[int]bool
	passSeen    map[int]int
	dirty       map[int]bool
	curWindow   int
	maxWindow   int
	retiredOps  int
	stats       Stats
}

// Checkpoint captures the node's recoverable state. It returns nil while a
// consistent-state snapshot is in flight (frozen or with deferred events):
// snapshot state is not journaled, so a checkpoint cut there would not be
// replayable. Callers simply retry after the epoch finishes.
func (n *Node) Checkpoint() *Memento {
	if n.frozen || len(n.deferred) > 0 {
		return nil
	}
	m := &Memento{
		ranks:       cloneRanks(n.ranks),
		match:       n.match.Clone(),
		coll:        n.coll.Clone(),
		collOps:     cloneOpRefs(n.collOps),
		ackedEarly:  maps.Clone(n.ackedEarly),
		lastEpoch:   n.lastEpoch,
		deadPeers:   maps.Clone(n.deadPeers),
		readySent:   cloneReadys(n.readySent),
		membersSent: append([]collmatch.Member(nil), n.membersSent...),
		deadRanks:   maps.Clone(n.deadRanks),
		passSeen:    maps.Clone(n.passSeen),
		dirty:       maps.Clone(n.dirty),
		curWindow:   n.curWindow,
		maxWindow:   n.maxWindow,
		retiredOps:  n.retiredOps,
		stats:       n.stats,
	}
	return m
}

// Restore overwrites the node's recoverable state with a deep copy of the
// memento.
func (n *Node) Restore(m *Memento) {
	n.ranks = cloneRanks(m.ranks)
	n.match = m.match.Clone()
	n.coll = m.coll.Clone()
	n.collOps = cloneOpRefs(m.collOps)
	n.ackedEarly = maps.Clone(m.ackedEarly)
	n.lastEpoch = m.lastEpoch
	n.deadPeers = maps.Clone(m.deadPeers)
	n.readySent = cloneReadys(m.readySent)
	n.membersSent = append([]collmatch.Member(nil), m.membersSent...)
	n.deadRanks = maps.Clone(m.deadRanks)
	n.passSeen = maps.Clone(m.passSeen)
	n.dirty = maps.Clone(m.dirty)
	n.curWindow = m.curWindow
	n.maxWindow = m.maxWindow
	n.retiredOps = m.retiredOps
	n.stats = m.stats
	n.frozen = false
	n.snap = nil
	n.deferred = nil
	n.self = nil
}

// SetOut swaps the node's communication surface. Recovery replays with
// Discard, then restores the real surface. Coalesced traffic still pending
// belongs to the surface that was active when it was produced — flushing it
// first means replay output buffered under Discard is dropped there instead
// of leaking through the real surface after the swap.
func (n *Node) SetOut(o Out) {
	n.FlushPeers()
	n.out = o
}

// RetiredOps counts operations retired (advanced past) since the node was
// created — the recovery plane's checkpoint-policy signal: the journal
// watermark advances after enough work retired.
func (n *Node) RetiredOps() int { return n.retiredOps }

// Discard is an Out that drops everything, for journal replay.
var Discard Out = discardOut{}

type discardOut struct{}

func (discardOut) Peer(int, any) {}
func (discardOut) Up(any)        {}

func cloneRanks(ranks []rankState) []rankState {
	cp := make([]rankState, len(ranks))
	for i := range ranks {
		rs := &ranks[i]
		cp[i] = rankState{
			rank: rs.rank, l: rs.l, done: rs.done, lastTS: rs.lastTS,
			crashed: rs.crashed, lastCall: rs.lastCall,
			ops:      rs.ops.clone(),
			reqs:     rs.reqs.clone(),
			collSeq:  maps.Clone(rs.collSeq),
			creating: slices.Clone(rs.creating),
		}
	}
	return cp
}

// clone copies the window from its first stored operation on, so a clone
// of a clone equals the clone. Operation records are copied; they share
// their trace.Op's Reqs, which nothing mutates.
func (w *window) clone() window {
	stored := w.stored()
	cp := window{base: w.base + w.lo, slots: make([]*opState, len(stored))}
	for i, o := range stored {
		if o != nil {
			c := *o
			c.probeAcks = slices.Clone(o.probeAcks)
			cp.slots[i] = &c
		}
	}
	return cp
}

func cloneOpRefs(m map[collKey][]opRef) map[collKey][]opRef {
	cp := make(map[collKey][]opRef, len(m))
	for k, v := range m {
		cp[k] = append([]opRef(nil), v...)
	}
	return cp
}

func cloneReadys(m map[collKey][]collmatch.Ready) map[collKey][]collmatch.Ready {
	cp := make(map[collKey][]collmatch.Ready, len(m))
	for k, v := range m {
		cp[k] = append([]collmatch.Ready(nil), v...)
	}
	return cp
}

// cloneAckedEarly etc. intentionally share nothing: a second crash between
// checkpoints restores from the same memento again.
