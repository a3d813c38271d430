//go:build !race

// The race detector changes allocation counts, so this bound holds only
// without it.

package dws

import (
	"testing"

	"dwst/internal/event"
	"dwst/internal/trace"
)

// TestBuildReportsAllocsPerLeaf bounds one leaf's snapshot at the
// send–send end state of the Fig. 11 benchmark: four hosted ranks, each
// blocked in a Send to a rank of the next node. BeginSnapshot and
// BuildReports together allocate the snapshot record and its ping, the
// report's entry array, the description buffer with the one string every
// description is cut from, the targets and the offsets: 9, a count per
// leaf rather than per rank (24 when every description took fmt calls and
// every entry grew its own slices). The bound sits about a quarter above.
func TestBuildReportsAllocsPerLeaf(t *testing.T) {
	const fanIn = 4
	n := NewNode(0, []int{0, 1, 2, 3}, func(r int) int { return r / fanIn }, Discard)
	for r := 0; r < fanIn; r++ {
		n.OnEvent(event.Event{Type: event.Enter, Op: trace.Op{
			Proc: r, Kind: trace.Send, Peer: r + fanIn, PeerWorld: r + fanIn, SelfGroup: r,
		}})
	}
	epoch := 0
	snapshot := func() WaitReport {
		epoch++
		n.BeginSnapshot(epoch)
		rep, ok := n.BuildReports(epoch)
		if !ok {
			t.Fatal("BuildReports refused its own epoch")
		}
		return rep
	}
	for _, e := range snapshot().Entries {
		if e.State != Blocked || e.Desc == "" {
			t.Fatalf("rank %d: state %v, desc %q", e.Rank, e.State, e.Desc)
		}
	}
	const bound = 11
	allocs := testing.AllocsPerRun(20, func() { snapshot() })
	t.Logf("%.0f allocations per leaf snapshot of %d ranks", allocs, fanIn)
	if allocs > bound {
		t.Errorf("%.0f allocations per leaf snapshot, want at most %d", allocs, bound)
	}
}

// TestIntraNodeRoundAllocs: a round of Isend/Irecv between two ranks of one
// leaf, completed by a Waitall on each side, costs no allocation once the
// leaf's window is warm. The PassSend, RecvActive and RecvActiveAck of the
// round all stay on the node: they travel its self queue by value, the
// matching engine stores the send and the receive by value, and the
// operation records come back from the free list.
func TestIntraNodeRoundAllocs(t *testing.T) {
	const rounds, warm = 200, 50
	n := NewNode(0, []int{0, 1, 2, 3}, func(r int) int { return r / 4 }, Discard)
	// Each round is four events: rank 0 Isend to 1, rank 1 Irecv from 0,
	// and each rank's Waitall on its request. Built beforehand, so the
	// measured loop only hands them to the node.
	var evs []event.Event
	for i := 0; i < rounds; i++ {
		rq := trace.ReqID(i)
		evs = append(evs,
			event.Event{Type: event.Enter, Op: trace.Op{Proc: 0, TS: 2 * i, Kind: trace.Isend, Peer: 1, PeerWorld: 1, Req: rq}},
			event.Event{Type: event.Enter, Op: trace.Op{Proc: 1, TS: 2 * i, Kind: trace.Irecv, Peer: 0, PeerWorld: 0, SelfGroup: 1, Req: rq}},
			event.Event{Type: event.Enter, Op: trace.Op{Proc: 0, TS: 2*i + 1, Kind: trace.Waitall, Reqs: []trace.ReqID{rq}}},
			event.Event{Type: event.Enter, Op: trace.Op{Proc: 1, TS: 2*i + 1, Kind: trace.Waitall, Reqs: []trace.ReqID{rq}}},
		)
	}
	next := 0
	round := func() {
		for _, ev := range evs[4*next : 4*next+4] {
			n.OnEvent(ev)
		}
		next++
	}
	for next < warm {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if n.CurrentTS(0) != 2*next || n.CurrentTS(1) != 2*next || n.WindowSize() != 0 {
		t.Fatalf("after %d rounds: ranks at %d and %d, %d operations stored; want both at %d, none stored",
			next, n.CurrentTS(0), n.CurrentTS(1), n.WindowSize(), 2*next)
	}
	if got := n.Stats(); got.PassSends != next || got.RecvActives != next || got.RecvActiveAcks != next {
		t.Fatalf("stats %+v after %d rounds: want one message of each kind per round", got, next)
	}
	t.Logf("%.2f allocations per intra-node round (4 operations)", allocs)
	if allocs != 0 {
		t.Errorf("%.2f allocations per intra-node round, want 0", allocs)
	}
}
