// Package wfg implements the AND⊕OR wait-for graph and the deadlock
// criterion used by the paper's graph-based detection [9].
//
// Nodes are processes. A blocked process carries a wait-for condition: a set
// of target processes with either AND semantics (all targets must progress,
// e.g. sends, collectives, Waitall) or OR semantics (any one target
// suffices, e.g. wildcard receives, Waitany).
//
// The deadlock criterion is computed as a generalized release fixpoint:
// starting from the unblocked processes, repeatedly release a blocked AND
// node once ALL its targets are released and a blocked OR node once ANY
// target is. The unreleased residue is exactly the deadlocked set — for
// pure AND graphs this coincides with cycle existence, for pure OR graphs
// with knot existence, matching the criteria of [9].
package wfg

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"dwst/internal/waitstate"
)

// Graph is a wait-for graph over n processes. The zero node state is
// "not blocked".
type Graph struct {
	n        int
	blocked  []bool
	finished []bool
	sem      []waitstate.Semantics
	targets  [][]int32
	desc     []string
	arcs     int
}

// New returns an empty wait-for graph over n processes.
func New(n int) *Graph {
	return &Graph{
		n:        n,
		blocked:  make([]bool, n),
		finished: make([]bool, n),
		sem:      make([]waitstate.Semantics, n),
		targets:  make([][]int32, n),
		desc:     make([]string, n),
	}
}

// Arcs returns the total number of wait-for arcs.
func (g *Graph) Arcs() int { return g.arcs }

// SetBlocked records the wait-for condition of a blocked process.
func (g *Graph) SetBlocked(proc int, sem waitstate.Semantics, targets []int, desc string) {
	if g.blocked[proc] {
		g.arcs -= len(g.targets[proc])
	}
	g.blocked[proc] = true
	g.sem[proc] = sem
	ts := make([]int32, len(targets))
	for i, t := range targets {
		ts[i] = int32(t)
	}
	g.targets[proc] = ts
	g.desc[proc] = desc
	g.arcs += len(ts)
}

// SetFinished marks a process as terminated (at MPI_Finalize or returned):
// it can never issue another operation, so it can never satisfy a waiter.
// A wait arc towards a finished process is permanently unsatisfiable — this
// realizes the Section 3.1 observation that a terminal state with some
// l_i < m_i is a deadlock even without a dependency cycle (e.g. a receive
// from a process that already finalized).
func (g *Graph) SetFinished(proc int) {
	g.finished[proc] = true
}

// Desc returns the recorded wait description of proc.
func (g *Graph) Desc(proc int) string { return g.desc[proc] }

// Targets returns the wait-for targets of proc (shared slice; do not modify).
func (g *Graph) Targets(proc int) []int32 { return g.targets[proc] }

// Deadlocked computes the deadlock criterion and returns the deadlocked
// processes in ascending order (empty if none). Complexity O(V + E).
func (g *Graph) Deadlocked() []int {
	// need[i]: number of releases process i still needs.
	//   AND: all targets          → need = len(targets)
	//   OR : any one target       → need = min(1, ∞); 0 targets means the
	//        condition can never be satisfied (OR over ∅ is ⊥).
	need := make([]int32, g.n)
	orEmpty := make([]bool, g.n)
	rev := make([][]int32, g.n) // rev[t]: blocked waiters with an arc to t
	for i := 0; i < g.n; i++ {
		if !g.blocked[i] {
			continue
		}
		switch {
		case g.sem[i] == waitstate.OrWait && len(g.targets[i]) == 0:
			orEmpty[i] = true
			need[i] = 1 // never satisfied
		case g.sem[i] == waitstate.OrWait:
			need[i] = 1
		default:
			need[i] = int32(len(g.targets[i]))
		}
		for _, t := range g.targets[i] {
			rev[t] = append(rev[t], int32(i))
		}
	}

	released := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	for i := 0; i < g.n; i++ {
		if g.finished[i] {
			continue // a finished process can never satisfy a waiter
		}
		if !g.blocked[i] || (need[i] == 0 && !orEmpty[i]) {
			released[i] = true
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range rev[t] {
			if released[w] || orEmpty[w] {
				continue
			}
			if need[w]--; need[w] <= 0 {
				released[w] = true
				queue = append(queue, w)
			}
		}
	}

	var dead []int
	for i := 0; i < g.n; i++ {
		if g.blocked[i] && !released[i] {
			dead = append(dead, i)
		}
	}
	return dead
}

// Cycle returns one dependency cycle within the deadlocked set, as a
// sequence of processes p0 → p1 → … → pk (→ p0, the closing repeat
// omitted). When the deadlock is caused by a permanently unsatisfiable
// wait instead of a cycle — an arc to a finished process, or an OR over
// the empty set — the walk dead-ends and the returned slice is the
// dependency *chain* from the first deadlocked process to the
// unsatisfiable wait. It returns nil when dead is empty.
func (g *Graph) Cycle(dead []int) []int {
	if len(dead) == 0 {
		return nil
	}
	inDead := make(map[int32]bool, len(dead))
	for _, d := range dead {
		inDead[int32(d)] = true
	}
	next := func(i int32) int32 {
		for _, t := range g.targets[i] {
			if inDead[t] {
				return t
			}
		}
		return -1
	}
	start := int32(dead[0])
	seenAt := map[int32]int{}
	var path []int32
	cur := start
	for cur >= 0 {
		if at, ok := seenAt[cur]; ok {
			cycle := make([]int, 0, len(path)-at)
			for _, p := range path[at:] {
				cycle = append(cycle, int(p))
			}
			return cycle
		}
		seenAt[cur] = len(path)
		path = append(path, cur)
		cur = next(cur)
	}
	// Dead-ended: the deadlock is anchored on an unsatisfiable wait
	// (finished target or empty OR); return the chain.
	chain := make([]int, len(path))
	for i, p := range path {
		chain[i] = int(p)
	}
	return chain
}

// Groups decomposes the deadlocked set into independent deadlock clusters:
// the strongly connected components of the wait-for graph restricted to the
// deadlocked processes, plus singleton chains anchored on unsatisfiable
// waits. Each group is one reportable deadlock (e.g. the pairwise send-send
// pattern on p processes yields p/2 independent two-cycles). Groups are
// ordered by their smallest member; members ascend within a group.
func (g *Graph) Groups(dead []int) [][]int {
	if len(dead) == 0 {
		return nil
	}
	// Tarjan's SCC over the subgraph induced by dead.
	index := make(map[int]int, len(dead))
	low := make(map[int]int, len(dead))
	onStack := make(map[int]bool, len(dead))
	inDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		inDead[d] = true
	}
	var stack []int
	var groups [][]int
	next := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, tw := range g.targets[v] {
			t := int(tw)
			if !inDead[t] {
				continue
			}
			if _, seen := index[t]; !seen {
				strongconnect(t)
				if low[t] < low[v] {
					low[v] = low[t]
				}
			} else if onStack[t] && index[t] < low[v] {
				low[v] = index[t]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			groups = append(groups, comp)
		}
	}
	for _, d := range dead {
		if _, seen := index[d]; !seen {
			strongconnect(d)
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// DOT writes the wait-for graph of the given processes (typically the
// deadlocked set; nil means all blocked processes) in Graphviz DOT format,
// in the style of MUST's deadlock reports. The writer receives one line per
// node and arc, so the output streams for very large graphs.
func (g *Graph) DOT(w io.Writer, procs []int) error {
	if procs == nil {
		for i := 0; i < g.n; i++ {
			if g.blocked[i] {
				procs = append(procs, i)
			}
		}
	}
	return WriteDOT(w, procs,
		func(p int) waitstate.Semantics { return g.sem[p] },
		func(p int, visit func(t int)) {
			for _, t := range g.targets[p] {
				visit(int(t))
			}
		})
}

// WriteDOT is the DOT renderer behind Graph.DOT, for callers that can
// enumerate a process's wait semantics and targets without holding a Graph
// (the grouped snapshot of internal/engine streams its p² arcs through it).
func WriteDOT(w io.Writer, procs []int, sem func(p int) waitstate.Semantics, targets func(p int, visit func(t int))) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	include := make(map[int]bool, len(procs))
	for _, p := range procs {
		include[p] = true
	}
	fmt.Fprintln(bw, "digraph WaitForGraph {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	for _, p := range procs {
		shape := "box"
		label := fmt.Sprintf("rank %d\\nAND", p)
		if sem(p) == waitstate.OrWait {
			shape = "diamond"
			label = fmt.Sprintf("rank %d\\nOR", p)
		}
		fmt.Fprintf(bw, "  p%d [shape=%s,label=\"%s\"];\n", p, shape, label)
	}
	for _, p := range procs {
		targets(p, func(t int) {
			if include[t] {
				fmt.Fprintf(bw, "  p%d -> p%d;\n", p, t)
			} else {
				fmt.Fprintf(bw, "  p%d -> ext%d [style=dashed];\n", p, t)
			}
		})
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
