package wfg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"dwst/internal/waitstate"
)

// Graph simplification — the future work named in Section 6 of the paper:
// "graphs with p² arcs are not human readable for more than a few
// processes … we plan to investigate graph transformations and
// simplifications, which could simplify wait-for information … e.g., in our
// wildcard stress test we would detect that all processes wait for all
// other processes with an OR semantic."
//
// Simplify groups deadlocked processes into equivalence classes with
// identical wait structure. Two normalizations make the common large
// patterns collapse:
//
//   - all-others: a node whose targets are exactly every other process in
//     the set (the wildcard storm) gets the ALL-OTHERS signature;
//   - explicit: otherwise, the sorted target list is the signature.
//
// The class graph has one node per class and one arc per distinct
// class-to-class dependency, so the wildcard stress case renders as a
// single self-looping OR class regardless of p.

// Class is a group of processes with identical wait semantics and targets.
type Class struct {
	// Members are the processes in the class, ascending.
	Members []int
	// Sem is the shared wait semantics.
	Sem waitstate.Semantics
	// AllOthers marks the "waits for every other process in the set"
	// pattern.
	AllOthers bool
	// Targets are the shared explicit targets, ascending (empty for
	// AllOthers, and for classes engine.Analysis derives from a shared rank
	// set, whose members it does not copy per class).
	Targets []int
}

// ClassGraph is the simplified wait-for graph.
type ClassGraph struct {
	// Procs is the number of processes that were simplified.
	Procs int
	// Classes are the equivalence classes, in first-member order.
	Classes []Class
	// Arcs[i] lists the class indices class i depends on, ascending.
	Arcs [][]int
}

// Simplify builds the class graph of the given processes (typically the
// deadlocked set). Processes not in the set referenced as targets are kept
// as explicit targets of their classes.
func (g *Graph) Simplify(procs []int) *ClassGraph {
	inSet := make(map[int]bool, len(procs))
	for _, p := range procs {
		inSet[p] = true
	}

	signature := func(p int) string {
		ts := g.targets[p]
		// all-others check: every other process of the set, nothing else.
		if len(ts) == len(procs)-1 {
			all := true
			for _, t := range ts {
				if !inSet[int(t)] || int(t) == p {
					all = false
					break
				}
			}
			if all {
				return fmt.Sprintf("%v|ALL-OTHERS", g.sem[p])
			}
		}
		sorted := make([]int, len(ts))
		for i, t := range ts {
			sorted[i] = int(t)
		}
		sort.Ints(sorted)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v|", g.sem[p])
		for _, t := range sorted {
			fmt.Fprintf(&sb, "%d,", t)
		}
		return sb.String()
	}

	classIdx := map[string]int{}
	cg := &ClassGraph{Procs: len(procs)}
	memberClass := make(map[int]int, len(procs))
	for _, p := range procs {
		sig := signature(p)
		idx, ok := classIdx[sig]
		if !ok {
			idx = len(cg.Classes)
			classIdx[sig] = idx
			c := Class{Sem: g.sem[p], AllOthers: strings.HasSuffix(sig, "ALL-OTHERS")}
			if !c.AllOthers {
				for _, t := range g.targets[p] {
					c.Targets = append(c.Targets, int(t))
				}
				sort.Ints(c.Targets)
			}
			cg.Classes = append(cg.Classes, c)
		}
		cg.Classes[idx].Members = append(cg.Classes[idx].Members, p)
		memberClass[p] = idx
	}
	for i := range cg.Classes {
		sort.Ints(cg.Classes[i].Members)
	}

	// Class-level arcs: distinct classes of the members' targets.
	cg.Arcs = make([][]int, len(cg.Classes))
	for i, c := range cg.Classes {
		seen := map[int]bool{}
		addTarget := func(t int) {
			if ci, ok := memberClass[t]; ok && !seen[ci] {
				seen[ci] = true
				cg.Arcs[i] = append(cg.Arcs[i], ci)
			}
		}
		if c.AllOthers {
			// Depends on every class that holds a member of the set
			// (including itself when it has >1 member).
			for _, p := range procs {
				if len(c.Members) == 1 && p == c.Members[0] {
					continue
				}
				addTarget(p)
			}
		} else {
			for _, t := range c.Targets {
				addTarget(t)
			}
		}
		sort.Ints(cg.Arcs[i])
	}
	return cg
}

// rangesOf compresses a sorted member list into "a-b,c" notation.
func rangesOf(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	var sb strings.Builder
	start, prev := xs[0], xs[0]
	flush := func() {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&sb, "%d", start)
		} else {
			fmt.Fprintf(&sb, "%d-%d", start, prev)
		}
	}
	for _, x := range xs[1:] {
		if x == prev+1 {
			prev = x
			continue
		}
		flush()
		start, prev = x, x
	}
	flush()
	return sb.String()
}

// DOT renders the simplified graph; output size is proportional to the
// number of classes, not processes.
func (cg *ClassGraph) DOT(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<14)
	fmt.Fprintln(bw, "digraph SimplifiedWaitForGraph {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	for i, c := range cg.Classes {
		shape := "box"
		sem := "AND"
		if c.Sem == waitstate.OrWait {
			shape = "diamond"
			sem = "OR"
		}
		label := fmt.Sprintf("ranks %s\\n%d procs, %s", rangesOf(c.Members), len(c.Members), sem)
		if c.AllOthers {
			label += "\\nwait for ALL OTHER ranks"
		}
		fmt.Fprintf(bw, "  c%d [shape=%s,label=\"%s\"];\n", i, shape, label)
	}
	for i, arcs := range cg.Arcs {
		for _, j := range arcs {
			fmt.Fprintf(bw, "  c%d -> c%d;\n", i, j)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// Summary is a one-line human description, e.g. the paper's wildcard case:
// "all 4096 processes wait for all other processes (OR)".
func (cg *ClassGraph) Summary() string {
	if len(cg.Classes) == 1 && cg.Classes[0].AllOthers {
		sem := "AND"
		if cg.Classes[0].Sem == waitstate.OrWait {
			sem = "OR"
		}
		return fmt.Sprintf("all %d processes wait for all other processes (%s)", cg.Procs, sem)
	}
	return fmt.Sprintf("%d wait classes over %d processes", len(cg.Classes), cg.Procs)
}
