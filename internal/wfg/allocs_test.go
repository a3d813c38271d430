//go:build !race

// The race detector changes allocation counts, so this bound holds only
// without it.

package wfg

import (
	"io"
	"testing"
)

// TestClassGraphDOTAllocs bounds the class graph's rendering: the buffered
// writer and its buffer, two allocations however many classes, where the
// 4096 classes of the send–send pairs at p = 4096 used to cost about eleven
// each, to fmt.
func TestClassGraphDOTAllocs(t *testing.T) {
	cg := pairsGraph(4096)
	const bound = 3
	allocs := testing.AllocsPerRun(5, func() {
		if err := cg.DOT(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to render %d classes", allocs, len(cg.Classes))
	if allocs > bound {
		t.Errorf("%.0f allocations to render %d classes, want at most %d", allocs, len(cg.Classes), bound)
	}
}
