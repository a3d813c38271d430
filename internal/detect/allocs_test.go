//go:build !race

// The race detector changes allocation counts, so these bounds hold only
// without it.

package detect

import (
	"runtime"
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

// TestDetectionAllocsPerRank bounds what one detection allocates, from the
// first ack to the Result with its summary and class graph, on the two
// benchmark end states. The root's analysis and output are built from
// shared arrays sized in advance, and the result points into the reports
// instead of copying entries, so the allocations no longer grow with the
// ranks: about 150 for the send–send pairs at p = 4096 and 110 for the
// wildcard storm at p = 1024. They cost 18.8 and 2.2 per rank when entries
// were copied into unsized containers and every class was formatted with
// fmt, and 1.05 and 1.12 when Result.Entries still held a copy of each.
//
// The bytes grow with the wait classes, not the ranks: the pairs have one
// class per rank, the storm one class. With containers sized by the
// deadlocked count, entries copied into the result and the class graph
// grown line by line, the pairs cost 6.07 MB and the storm 0.83 MB; they
// cost 2.97 and 0.50 MB now. Every bound sits about a quarter above what
// the analysis costs now.
func TestDetectionAllocsPerRank(t *testing.T) {
	const fanIn = 4
	for _, tc := range []struct {
		name     string
		p        int
		entries  func(p int) []dws.WaitEntry
		bound    float64 // allocations per rank
		maxBytes float64 // per detection
	}{
		{"lammps_pairs", 4096, lammpsPairs, 0.045, 3.7e6},
		{"wildcard_storm", 1024, wildcardStorm, 0.14, 627e3},
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
				t.Errorf("%.3f allocations per rank, want at most %.3f", perRank, tc.bound)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				detectOnce(r, reports)
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s p=%d: %.0f bytes per detection", tc.name, tc.p, bytes)
			if bytes > tc.maxBytes {
				t.Errorf("%.0f bytes per detection, want at most %.0f", bytes, tc.maxBytes)
			}
		})
	}
}
