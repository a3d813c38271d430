package dws

import (
	"reflect"
	"testing"

	"dwst/internal/event"
	"dwst/internal/trace"
)

// blockedPair drives two cross-node sends/recvs into a half-finished state
// so nodes hold non-trivial matcher and wait-state structure.
func blockedPair(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, 4, 2)
	h.enter(trace.Op{Kind: trace.Recv, Proc: 0, TS: 0, Peer: 2, Comm: trace.CommWorld})
	h.enter(trace.Op{Kind: trace.Recv, Proc: 2, TS: 0, Peer: 0, Comm: trace.CommWorld})
	h.enter(trace.Op{Kind: trace.Send, Proc: 1, TS: 0, Peer: 3, Comm: trace.CommWorld})
	h.drain()
	return h
}

// TestOnRankDownIdempotent is the regression test for duplicated RankDown
// delivery (a root rebroadcast racing the hosting leaf's own event, or a
// replay-induced duplicate): the second call must neither drop matcher
// state twice nor change anything the stats report.
func TestOnRankDownIdempotent(t *testing.T) {
	h := blockedPair(t)
	n := h.node(0)

	if first := n.OnRankDown(0, 5); !first {
		t.Fatal("first OnRankDown must report a fresh death")
	}
	h.drain()
	statsBefore := n.Stats()
	m1 := n.Checkpoint()
	if m1 == nil {
		t.Fatal("checkpoint refused on a quiescent node")
	}

	if again := n.OnRankDown(0, 5); again {
		t.Fatal("duplicate OnRankDown must report already-dead")
	}
	// A duplicate with a different lastCall (stale retransmission) must be
	// ignored too.
	if again := n.OnRankDown(0, 7); again {
		t.Fatal("stale duplicate OnRankDown must report already-dead")
	}
	h.drain()

	if got := n.Stats(); got != statsBefore {
		t.Fatalf("duplicate RankDown changed message stats: %+v -> %+v", statsBefore, got)
	}
	m2 := n.Checkpoint()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("duplicate RankDown mutated node state:\n before %+v\n after  %+v", m1, m2)
	}
}

// TestOnRankDownIdempotentOnNonHost covers the rebroadcast path: a node
// that does not host the dead rank sees the root's RankDown twice.
func TestOnRankDownIdempotentOnNonHost(t *testing.T) {
	h := blockedPair(t)
	n := h.node(2) // hosts ranks 2,3; rank 0 is remote

	n.OnRankDown(0, 5)
	h.drain()
	m1 := n.Checkpoint()
	n.OnRankDown(0, 5)
	h.drain()
	m2 := n.Checkpoint()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("duplicate remote RankDown mutated node state")
	}
}

// TestCheckpointRestoreRoundTrip: a replacement node restored from a
// memento is logically identical to the original — its own checkpoint
// matches, and it keeps operating (the handshake completes after restore).
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	h := blockedPair(t)
	n := h.node(0)
	m := n.Checkpoint()
	if m == nil {
		t.Fatal("checkpoint refused on a quiescent node")
	}

	// Fresh node for the same slot, restored from the memento.
	nodeFor := func(rank int) int { return rank / 2 }
	repl := NewNode(0, []int{0, 1}, nodeFor, Discard)
	repl.Restore(m)

	m2 := repl.Checkpoint()
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("restored state differs from memento:\n want %+v\n got  %+v", m, m2)
	}

	// The restored node still advances: swap it into the harness, then let
	// rank 3 post the receive matching rank 1's already-passed send — the
	// peer handshake must run against the restored node's matcher state.
	repl.SetOut(harnessOut{h: h, id: 0})
	h.nodes[0] = repl
	h.enter(trace.Op{Kind: trace.Recv, Proc: 3, TS: 0, Peer: 1, Comm: trace.CommWorld})
	h.drain()
	if repl.Stats().RecvActiveAcks == 0 {
		t.Fatal("restored node did not resume the wait-state protocol")
	}
}

// TestMementoSurvivesRepeatedRestore: one memento must support several
// restores (repeated crashes of the same slot between checkpoints) without
// the restored nodes sharing mutable state.
func TestMementoSurvivesRepeatedRestore(t *testing.T) {
	h := blockedPair(t)
	m := h.node(0).Checkpoint()
	nodeFor := func(rank int) int { return rank / 2 }

	a := NewNode(0, []int{0, 1}, nodeFor, Discard)
	a.Restore(m)
	// Mutate the first restoree heavily; the memento must be unaffected.
	a.OnRankDown(0, 9)
	a.OnRankDown(1, 9)

	b := NewNode(0, []int{0, 1}, nodeFor, Discard)
	b.Restore(m)
	mb := b.Checkpoint()
	if !reflect.DeepEqual(m, mb) {
		t.Fatal("second restore saw state leaked from the first restoree")
	}
}

// TestCheckpointRefusedMidSnapshot: snapshot-protocol state is not
// journaled, so checkpoints must be refused from freeze until the epoch
// resolves.
func TestCheckpointRefusedMidSnapshot(t *testing.T) {
	h := blockedPair(t)
	n := h.node(0)
	n.BeginSnapshot(1)
	if n.Checkpoint() != nil {
		t.Fatal("checkpoint must be refused while frozen")
	}
	n.Abort(1)
	if n.Checkpoint() == nil {
		t.Fatal("checkpoint must work again after the epoch aborted")
	}
}

// TestCommInfoAfterCollAckStillEmitsMember is the regression test for the
// sub-communicator false positive: the Ack of a Comm_split can overtake the
// rank's own trailing CommInfo event (they enter the node loop on different
// links), retiring the operation first. The registry report must still be
// emitted — and survive a checkpoint/restore cut between the two.
func TestCommInfoAfterCollAckStillEmitsMember(t *testing.T) {
	const p, newComm = 4, trace.CommID(2)
	h := newHarness(t, p, 2)
	for r := 0; r < p; r++ {
		h.enter(trace.Op{Proc: r, TS: 0, Kind: trace.CommSplit, Comm: trace.CommWorld})
	}
	h.drain()
	for r := 0; r < p; r++ {
		// The harness root acked synchronously: every split already retired.
		if h.node(r).CurrentTS(r) != 1 {
			t.Fatalf("rank %d did not pass the split, l = %d", r, h.node(r).CurrentTS(r))
		}
	}
	// Node 1 crashes and is rebuilt between the Ack and its CommInfo events.
	m := h.nodes[1].Checkpoint()
	if m == nil {
		t.Fatal("checkpoint refused on a quiescent node")
	}
	neu := NewNode(1, []int{2, 3}, func(rank int) int { return rank / 2 }, harnessOut{h: h, id: 1})
	neu.Restore(m)
	h.nodes[1] = neu

	for r := 0; r < p; r++ {
		h.node(r).OnEvent(event.Event{Type: event.CommInfo, Proc: r, TS: 0, Comm: newComm})
	}
	if g := h.root.Group(newComm); len(g) != p {
		t.Fatalf("communicator %d sealed with group %v, want all %d ranks", newComm, g, p)
	}
	// Consumed: the pending set is empty again, so a checkpoint carries none.
	for _, n := range h.nodes {
		for _, rs := range n.Checkpoint().ranks {
			if len(rs.creating) != 0 {
				t.Fatalf("rank %d still has pending creations %v", rs.rank, rs.creating)
			}
		}
	}
}
