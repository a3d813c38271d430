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

// TestCrossNodeRoundAllocs: k rounds of Isend/Irecv between a rank of one
// leaf and a rank of another, closed by one Waitall on each side, cross
// the leaves as three flushes (the PassSends, the RecvActives, the
// RecvActiveAcks), each a Batch of k messages. Once the leaves are warm a
// cycle allocates per flushed destination (the batch's slice and its box)
// and nothing per message: the count per flush is the same for every
// k > 1. At k = 1 every flush is a bare message, boxed once.
func TestCrossNodeRoundAllocs(t *testing.T) {
	const cycles, warm = 150, 50
	perFlush := map[int]float64{}
	for _, k := range []int{1, 2, 8, 32} {
		a, b := &link{}, &link{}
		nodeFor := func(r int) int { return r / 4 }
		na, nb := NewNode(0, []int{0, 1, 2, 3}, nodeFor, a), NewNode(1, []int{4, 5, 6, 7}, nodeFor, b)
		na.SetBatch(true)
		nb.SetBatch(true)
		// Per cycle, rank 0 issues k Isends to rank 4 and a Waitall on
		// them, rank 4 k Irecvs from rank 0 and a Waitall; built
		// beforehand, so the measured loop only hands them to the leaves.
		var evA, evB [][]event.Event
		for c := 0; c < cycles; c++ {
			ts, reqs := c*(k+1), make([]trace.ReqID, k)
			var ea, eb []event.Event
			for i := range reqs {
				reqs[i] = trace.ReqID(c*k + i)
				ea = append(ea, event.Event{Type: event.Enter, Op: trace.Op{Proc: 0, TS: ts + i, Kind: trace.Isend, Peer: 4, PeerWorld: 4, Req: reqs[i]}})
				eb = append(eb, event.Event{Type: event.Enter, Op: trace.Op{Proc: 4, TS: ts + i, Kind: trace.Irecv, Peer: 0, PeerWorld: 0, SelfGroup: 4, Req: reqs[i]}})
			}
			ea = append(ea, event.Event{Type: event.Enter, Op: trace.Op{Proc: 0, TS: ts + k, Kind: trace.Waitall, Reqs: reqs}})
			eb = append(eb, event.Event{Type: event.Enter, Op: trace.Op{Proc: 4, TS: ts + k, Kind: trace.Waitall, Reqs: reqs}})
			evA, evB = append(evA, ea), append(evB, eb)
		}
		next := 0
		cycle := func() {
			for i := range evA[next] {
				na.OnEventRef(&evA[next][i])
				nb.OnEventRef(&evB[next][i])
			}
			next++
			for {
				na.FlushPeers()
				nb.FlushPeers()
				if len(a.q) == 0 && len(b.q) == 0 {
					return
				}
				a.deliver(nb, 0)
				b.deliver(na, 1)
			}
		}
		for next < warm {
			cycle()
		}
		ran, sent := next, a.flushes+b.flushes
		allocs := testing.AllocsPerRun(cycles-warm-1, cycle)
		flushes := float64(a.flushes+b.flushes-sent) / float64(next-ran)
		if na.CurrentTS(0) != next*(k+1) || nb.CurrentTS(4) != next*(k+1) || na.WindowSize()+nb.WindowSize() != 0 {
			t.Fatalf("k=%d after %d cycles: ranks at %d and %d, %d operations stored; want both at %d, none stored",
				k, next, na.CurrentTS(0), nb.CurrentTS(4), na.WindowSize()+nb.WindowSize(), next*(k+1))
		}
		if s := na.Stats(); s.PassSends != k*next || s.RecvActiveAcks != k*next || nb.Stats().RecvActives != k*next {
			t.Fatalf("k=%d: stats %+v and %+v after %d cycles, want %d of each handshake", k, s, nb.Stats(), next, k*next)
		}
		perFlush[k] = allocs / flushes
		t.Logf("k=%d: %.0f allocations per cycle, %.2f per flushed destination", k, allocs, perFlush[k])
	}
	if perFlush[1] > 1 {
		t.Errorf("k=1: %.2f allocations per flushed message, want at most 1", perFlush[1])
	}
	for k, v := range perFlush {
		if k > 1 && (v != perFlush[2] || v > 2) {
			t.Errorf("k=%d: %.2f allocations per flushed batch, want at most 2 and the same for every k (k=2: %.2f)",
				k, v, perFlush[2])
		}
	}
}

// link is the Out of one leaf in TestCrossNodeRoundAllocs: it queues what
// the leaf flushes for deliver to hand to the other leaf, reusing its
// queue, so it allocates nothing once warm.
type link struct {
	q       []any
	flushes int
}

func (l *link) Peer(_ int, msg any) {
	l.q = append(l.q, msg)
	l.flushes++
}

func (l *link) Up(any) {}

// deliver hands every queued message to n, as sent by node from.
func (l *link) deliver(n *Node, from int) {
	for i, m := range l.q {
		n.OnPeer(from, m)
		l.q[i] = nil
	}
	l.q = l.q[:0]
}
