//go:build !race

// The race detector changes allocation counts, so these bounds hold only
// without it.

package detect

import (
	"testing"

	"dwst/internal/dws"
)

// detectOnce runs one detection over the reports the way the tree delivers
// them — Start, every ack, every report — and consumes its Result.
func detectOnce(r *Root, reports []dws.WaitReport) *Result {
	r.Start()
	for _, rep := range reports {
		r.OnAck(dws.AckConsistentState{Node: rep.Node, Epoch: r.Epoch()})
	}
	for _, rep := range reports {
		rep.Epoch = r.Epoch()
		r.OnWaitReport(rep)
	}
	return <-r.Results
}

// TestDetectionAllocsPerRank bounds what one detection allocates per rank,
// from the first ack to the Result with its summary and class graph, on the
// two benchmark end states. The root's analysis and output are built from
// shared, sized arrays and appends, so what is left is about one allocation
// per rank: its entry's copy in Result.Entries, a map whose values are too
// large to be stored inline. When entries were copied into unsized
// containers and every class was formatted with fmt, the send–send pairs
// at p = 4096 cost 18.8 per rank and the wildcard storm at p = 1024 2.2.
// The bounds sit about a quarter above what the analysis costs now.
func TestDetectionAllocsPerRank(t *testing.T) {
	const fanIn = 4
	for _, tc := range []struct {
		name    string
		p       int
		entries func(p int) []dws.WaitEntry
		bound   float64 // allocations per rank
	}{
		{"lammps_pairs", 4096, lammpsPairs, 1.3},
		{"wildcard_storm", 1024, wildcardStorm, 1.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reports := reportsOf(fanIn, tc.entries(tc.p))
			r := NewRoot(tc.p, len(reports))
			if res := detectOnce(r, reports); !res.Deadlock || len(res.Deadlocked) != tc.p {
				t.Fatalf("verdict %v, %d deadlocked", res.Verdict, len(res.Deadlocked))
			}
			allocs := testing.AllocsPerRun(5, func() { detectOnce(r, reports) })
			perRank := allocs / float64(tc.p)
			t.Logf("%s p=%d: %.0f allocations per detection, %.2f per rank", tc.name, tc.p, allocs, perRank)
			if perRank > tc.bound {
				t.Errorf("%.2f allocations per rank, want at most %.2f", perRank, tc.bound)
			}
		})
	}
}
