package wfg

import (
	"strings"
	"testing"

	"dwst/internal/waitstate"
)

func TestSimplifyWildcardStormToOneClass(t *testing.T) {
	const p = 64
	g := New(p)
	var procs []int
	for i := 0; i < p; i++ {
		var ts []int
		for j := 0; j < p; j++ {
			if j != i {
				ts = append(ts, j)
			}
		}
		g.SetBlocked(i, waitstate.OrWait, ts, "Recv(ANY)")
		procs = append(procs, i)
	}
	cg := g.Simplify(procs)
	if len(cg.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(cg.Classes))
	}
	c := cg.Classes[0]
	if !c.AllOthers || c.Sem != waitstate.OrWait || len(c.Members) != p {
		t.Fatalf("class = %+v", c)
	}
	if want := "all 64 processes wait for all other processes (OR)"; cg.Summary() != want {
		t.Fatalf("summary = %q", cg.Summary())
	}
	// Output size must be O(classes), not O(p²).
	var full, simple strings.Builder
	if err := g.DOT(&full, procs); err != nil {
		t.Fatal(err)
	}
	if err := cg.DOT(&simple); err != nil {
		t.Fatal(err)
	}
	if simple.Len()*10 > full.Len() {
		t.Fatalf("simplified DOT (%d bytes) not much smaller than full (%d bytes)",
			simple.Len(), full.Len())
	}
	if !strings.Contains(simple.String(), "wait for ALL OTHER ranks") {
		t.Fatalf("simplified DOT:\n%s", simple.String())
	}
}

func TestSimplifyKeepsDistinctClasses(t *testing.T) {
	g := New(6)
	// Two send-send pairs with distinct targets plus one OR node.
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "")
	g.SetBlocked(2, waitstate.AndWait, []int{3}, "")
	g.SetBlocked(3, waitstate.AndWait, []int{2}, "")
	g.SetBlocked(4, waitstate.OrWait, []int{0, 2}, "")
	cg := g.Simplify([]int{0, 1, 2, 3, 4})
	if len(cg.Classes) != 5 {
		t.Fatalf("classes = %d, want 5 (all distinct targets)", len(cg.Classes))
	}
}

func TestSimplifyGroupsIdenticalWaiters(t *testing.T) {
	g := New(8)
	// Ranks 1..7 all AND-wait for rank 0 (incomplete collective shape).
	var procs []int
	for i := 1; i < 8; i++ {
		g.SetBlocked(i, waitstate.AndWait, []int{0}, "barrier")
		procs = append(procs, i)
	}
	cg := g.Simplify(procs)
	if len(cg.Classes) != 1 || len(cg.Classes[0].Members) != 7 {
		t.Fatalf("classes = %+v", cg.Classes)
	}
	if cg.Classes[0].AllOthers {
		t.Fatal("waiting for an external rank is not ALL-OTHERS")
	}
	if len(cg.Arcs[0]) != 0 {
		t.Fatalf("no intra-set arcs expected, got %v", cg.Arcs[0])
	}
}

func TestRangesOf(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{5}, "5"},
		{[]int{0, 2, 3, 4, 9}, "0,2-4,9"},
		{nil, ""},
	}
	for _, c := range cases {
		if got := string(appendRanges(nil, c.in)); got != c.want {
			t.Errorf("appendRanges(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSimplifiedTwoCycleCollapsesToSelfLoop(t *testing.T) {
	// A send-send pair within a 2-process set IS the all-others pattern:
	// one class with a self arc ("each waits for the other").
	g := New(4)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "")
	cg := g.Simplify([]int{0, 1})
	if len(cg.Classes) != 1 || !cg.Classes[0].AllOthers {
		t.Fatalf("classes = %+v", cg.Classes)
	}
	if len(cg.Arcs[0]) != 1 || cg.Arcs[0][0] != 0 {
		t.Fatalf("arcs = %v, want self arc", cg.Arcs)
	}
}

func TestSimplifiedDistinctPairsStaySeparate(t *testing.T) {
	// Two independent send-send pairs in a 4-process set: targets are not
	// "all others", so each rank keeps its own singleton class.
	g := New(4)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "")
	g.SetBlocked(2, waitstate.AndWait, []int{3}, "")
	g.SetBlocked(3, waitstate.AndWait, []int{2}, "")
	cg := g.Simplify([]int{0, 1, 2, 3})
	if len(cg.Classes) != 4 {
		t.Fatalf("classes = %d, want 4", len(cg.Classes))
	}
	// Arcs of rank 0's class point at rank 1's class.
	if len(cg.Arcs[0]) != 1 {
		t.Fatalf("arcs = %v", cg.Arcs)
	}
}
