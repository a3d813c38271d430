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
