package wfg

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwst/internal/waitstate"
)

var update = flag.Bool("update", false, "rewrite the pinned class graphs under testdata/")

// pairsGraph is the Fig. 11 end state in class form: p ranks in send–send
// pairs 2i ⇄ 2i+1, one class per rank.
func pairsGraph(p int) *ClassGraph {
	g := New(p)
	procs := make([]int, p)
	for r := range procs {
		g.SetBlocked(r, waitstate.AndWait, []int{r ^ 1}, "")
		procs[r] = r
	}
	return g.Simplify(procs)
}

// mixedGraph has ranges, both shapes, the ALL-OTHERS label, self loops and
// multi-digit indices.
func mixedGraph() *ClassGraph {
	return &ClassGraph{
		Procs: 20,
		Classes: []Class{
			{Members: []int{0, 1, 2, 3, 7, 9, 10, 11}, Sem: waitstate.AndWait, Targets: []int{12}},
			{Members: []int{4}, Sem: waitstate.OrWait, AllOthers: true},
			{Members: []int{5, 6}, Sem: waitstate.OrWait, Targets: []int{0, 4}},
			{Members: []int{8, 12, 13, 14, 15, 16, 17, 18, 4095}, Sem: waitstate.AndWait},
		},
		Arcs: [][]int{{3}, {0, 1, 2, 3}, {0, 1}, {3}},
	}
}

// TestDOTStringIsSizedExactly checks that the length DOTString allocates
// (dotLen) is what DOT writes, and that both write the same bytes.
func TestDOTStringIsSizedExactly(t *testing.T) {
	storm := &ClassGraph{Procs: 1024, Classes: []Class{{Sem: waitstate.OrWait, AllOthers: true}}, Arcs: [][]int{{0}}}
	for i := range 1024 {
		storm.Classes[0].Members = append(storm.Classes[0].Members, i)
	}
	for name, cg := range map[string]*ClassGraph{"mixed": mixedGraph(), "pairs": pairsGraph(4096), "storm": storm, "empty": {}} {
		var sb strings.Builder
		if err := cg.DOT(&sb); err != nil {
			t.Fatal(err)
		}
		if n := cg.dotLen(); n != sb.Len() {
			t.Errorf("%s: dotLen %d, DOT wrote %d bytes", name, n, sb.Len())
		}
		if cg.DOTString() != sb.String() {
			t.Errorf("%s: DOTString differs from DOT", name)
		}
	}
}

// TestPinnedClassGraphDOT pins the class graph's DOT bytes — ranges,
// both shapes, the ALL-OTHERS label, self loops, multi-digit indices —
// against testdata/classgraph.dot, written by the fmt-based renderer.
func TestPinnedClassGraphDOT(t *testing.T) {
	cg := mixedGraph()
	var sb strings.Builder
	if err := cg.DOT(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("--- pairs of 24\n")
	if err := pairsGraph(24).DOT(&sb); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "classgraph.dot")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("class graph DOT differs from %s:\n%s", path, got)
	}
}
