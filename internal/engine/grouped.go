package engine

import (
	"io"
	"sort"

	"dwst/internal/waitstate"
	"dwst/internal/wfg"
)

// RankSet is a set of ranks that many waits share: "every process of
// communicator C" behind a wildcard receive, "every member of C that has
// not joined wave w" behind a collective. A wait references the set through
// Wait.Others instead of listing its members, so p waits on one set cost
// O(p) to describe and to analyze where their expansion costs p² arcs.
type RankSet struct {
	// Members are the set's distinct ranks, in the order they appear in a
	// wait's expanded target list.
	Members []int
}

// each calls visit with every target of rank self's wait, in expansion
// order: Targets as listed, then the members of Others that are neither
// self nor already in Targets.
func (w Wait) each(self int, visit func(t int)) {
	for _, t := range w.Targets {
		visit(t)
	}
	if w.Others == nil {
		return
	}
	var listed map[int]bool
	if len(w.Targets) > 0 {
		listed = make(map[int]bool, len(w.Targets))
		for _, t := range w.Targets {
			listed[t] = true
		}
	}
	for _, m := range w.Others.Members {
		if m != self && !listed[m] {
			visit(m)
		}
	}
}

// Expand returns the explicit target list the wait of rank self stands for.
func (w Wait) Expand(self int) []int {
	if w.Others == nil {
		return w.Targets
	}
	out := make([]int, 0, len(w.Targets)+len(w.Others.Members))
	w.each(self, func(t int) { out = append(out, t) })
	return out
}

// Flat returns the snapshot with every shared-set wait expanded to explicit
// targets — the form the materialising engines (BuildWFG and the reference
// fixpoint on it, CMH, TwoCycle) analyze. Snapshots without set references
// are returned as they are.
func (s *Snapshot) Flat() *Snapshot {
	grouped := false
	for _, w := range s.Blocked {
		if w.Others != nil {
			grouped = true
			break
		}
	}
	if !grouped {
		return s
	}
	flat := *s
	flat.Blocked = make(map[int]Wait, len(s.Blocked))
	for rk, w := range s.Blocked {
		flat.Blocked[rk] = Wait{Sem: w.Sem, Targets: w.Expand(rk), Desc: w.Desc}
	}
	return &flat
}

// DOT streams the wait-for graph of procs (typically the deadlocked set) in
// the format of wfg.Graph.DOT, byte for byte, straight from the grouped
// snapshot: no arc is stored.
func (s *Snapshot) DOT(w io.Writer, procs []int) error {
	return wfg.WriteDOT(w, procs,
		func(p int) waitstate.Semantics { return s.Blocked[p].Sem },
		func(p int, visit func(t int)) { s.Blocked[p].each(p, visit) })
}

// Analysis evaluates the reference criterion — the AND⊕OR release fixpoint
// of internal/wfg — and everything the report derives from the graph (arc
// count, a cycle, the independent groups, the class graph) on the
// snapshot's grouped form, in O(p + explicit arcs + Σ|set|) plus the size of
// what it returns. internal/wfg on Snapshot.Flat is the oracle it is tested
// against and what differential runs compare it with.
type Analysis struct {
	n int

	blocked  []bool
	finished []bool
	wait     []Wait
	set      []int // wait[i].Others as an index into sets, or -1
	// inSet[i]: rank i is a member of its own set (and so never counted
	// towards it). omit[i]: inSet[i] and Targets does not name i, so i is
	// the one member the expansion leaves out. extra[i] is Targets, sorted,
	// less one copy of every rank the set contributes too. The expanded
	// target multiset of i is then, canonically, extra[i] ⊎ set, less i
	// when omit[i].
	inSet []bool
	omit  []bool
	extra [][]int
	sets  []rankSet
	// rev[t] lists the blocked ranks with an explicit arc to t (one entry
	// per arc); memberOf[t] the sets containing t.
	rev      [][]int
	memberOf [][]int

	// Arcs is the size of the expanded wait-for graph.
	Arcs int

	solved bool
	dead   []int
	inDead []bool
}

type rankSet struct {
	members []int // as given: expansion order
	sorted  []int // ascending: membership tests, canonical content
	and, or []int // blocked ranks waiting on the set, by semantics
	// released counts the members the fixpoint released so far.
	released int
}

func (rs *rankSet) has(r int) bool {
	i := sort.SearchInts(rs.sorted, r)
	return i < len(rs.sorted) && rs.sorted[i] == r
}

// NewAnalysis indexes the snapshot and counts its arcs. RankSet members
// must be distinct ranks.
func NewAnalysis(s *Snapshot) *Analysis {
	n := s.Procs
	a := &Analysis{
		n:        n,
		blocked:  make([]bool, n),
		finished: make([]bool, n),
		wait:     make([]Wait, n),
		set:      make([]int, n),
		inSet:    make([]bool, n),
		omit:     make([]bool, n),
		extra:    make([][]int, n),
		rev:      make([][]int, n),
		memberOf: make([][]int, n),
	}
	for _, f := range s.Finished {
		a.finished[f] = true
	}
	index := map[*RankSet]int{}
	for i := range a.set {
		a.set[i] = -1
	}
	for rk, w := range s.Blocked {
		a.blocked[rk] = true
		a.wait[rk] = w
		if w.Others == nil {
			continue
		}
		k, ok := index[w.Others]
		if !ok {
			k = len(a.sets)
			index[w.Others] = k
			rs := rankSet{members: w.Others.Members, sorted: append([]int(nil), w.Others.Members...)}
			sort.Ints(rs.sorted)
			a.sets = append(a.sets, rs)
			for _, m := range rs.members {
				a.memberOf[m] = append(a.memberOf[m], k)
			}
		}
		a.set[rk] = k
	}
	for i := 0; i < n; i++ {
		if !a.blocked[i] {
			continue
		}
		w := a.wait[i]
		for _, t := range w.Targets {
			a.rev[t] = append(a.rev[t], i)
		}
		k := a.set[i]
		if k < 0 {
			a.Arcs += len(w.Targets)
			continue
		}
		rs := &a.sets[k]
		if w.Sem == waitstate.OrWait {
			rs.or = append(rs.or, i)
		} else {
			rs.and = append(rs.and, i)
		}
		a.inSet[i] = rs.has(i)
		a.omit[i] = a.inSet[i]
		if len(w.Targets) > 0 {
			// Fold one copy of every explicit target the set contributes
			// too back into the set: what stays is what the expansion
			// lists beyond the set's members.
			sorted := append([]int(nil), w.Targets...)
			sort.Ints(sorted)
			extra := sorted[:0]
			for j, t := range sorted {
				if (j == 0 || sorted[j-1] != t) && rs.has(t) {
					if t == i {
						a.omit[i] = false
					}
					continue
				}
				extra = append(extra, t)
			}
			a.extra[i] = extra
		}
		a.Arcs += a.degree(i)
	}
	return a
}

// degree is the length of rank i's expanded target list.
func (a *Analysis) degree(i int) int {
	k := a.set[i]
	if k < 0 {
		return len(a.wait[i].Targets)
	}
	d := len(a.extra[i]) + len(a.sets[k].members)
	if a.omit[i] {
		d--
	}
	return d
}

// Deadlocked runs the release fixpoint and returns the deadlocked ranks in
// ascending order (nil if none). One released-member counter per set stands
// in for the set's arcs: an OR-wait on the set is released by the first
// released member other than the waiter, an AND-wait once every other
// member is.
func (a *Analysis) Deadlocked() []int {
	if a.solved {
		return a.dead
	}
	a.solved = true
	need := make([]int, a.n) // explicit arcs of an AND-wait still unreleased
	never := make([]bool, a.n)
	released := make([]bool, a.n)
	var queue []int
	release := func(i int) {
		released[i] = true
		queue = append(queue, i)
	}
	// andReleased reports whether AND-waiter i has everything it needs.
	andReleased := func(i int) bool {
		if need[i] > 0 {
			return false
		}
		k := a.set[i]
		if k < 0 {
			return true
		}
		want := len(a.sets[k].members)
		if a.inSet[i] {
			want-- // the waiter is unreleased and not its own target
		}
		return a.sets[k].released >= want
	}
	for i := 0; i < a.n; i++ {
		switch {
		case a.finished[i]:
			// A finished process can never satisfy a waiter.
		case !a.blocked[i]:
			release(i)
		case a.wait[i].Sem == waitstate.OrWait:
			never[i] = a.degree(i) == 0 // OR over ∅ is ⊥
		default:
			need[i] = len(a.wait[i].Targets)
			if a.degree(i) == 0 {
				release(i) // AND over ∅ is ⊤
			}
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range a.rev[t] {
			if released[w] || never[w] {
				continue
			}
			if a.wait[w].Sem == waitstate.OrWait {
				release(w)
			} else if need[w]--; andReleased(w) {
				release(w)
			}
		}
		for _, k := range a.memberOf[t] {
			rs := &a.sets[k]
			rs.released++
			if rs.released == 1 {
				for _, w := range rs.or {
					if !released[w] && !never[w] {
						release(w)
					}
				}
			}
			if rs.released >= len(rs.members)-1 {
				for _, w := range rs.and {
					if !released[w] && andReleased(w) {
						release(w)
					}
				}
			}
		}
	}
	a.inDead = make([]bool, a.n)
	for i := 0; i < a.n; i++ {
		if a.blocked[i] && !released[i] {
			a.dead = append(a.dead, i)
			a.inDead[i] = true
		}
	}
	return a.dead
}

// Cycle returns what wfg.Graph.Cycle returns on the expanded graph: the
// walk from the lowest deadlocked rank along each rank's first deadlocked
// target, cut to the cycle it closes, or the whole chain when it dead-ends
// in an unsatisfiable wait. Nil without a deadlock.
func (a *Analysis) Cycle() []int {
	dead := a.Deadlocked()
	if len(dead) == 0 {
		return nil
	}
	// firstDead[k]: the first two deadlocked members of set k in expansion
	// order (the second serves the waiter that is itself the first).
	firstDead := make([][2]int, len(a.sets))
	for k, rs := range a.sets {
		firstDead[k] = [2]int{-1, -1}
		found := 0
		for _, m := range rs.members {
			if a.inDead[m] {
				firstDead[k][found] = m
				if found++; found == 2 {
					break
				}
			}
		}
	}
	next := func(i int) int {
		for _, t := range a.wait[i].Targets {
			if a.inDead[t] {
				return t
			}
		}
		if k := a.set[i]; k >= 0 {
			if m := firstDead[k][0]; m != i {
				return m
			}
			return firstDead[k][1]
		}
		return -1
	}
	seenAt := make(map[int]int)
	var path []int
	for cur := dead[0]; cur >= 0; cur = next(cur) {
		if at, ok := seenAt[cur]; ok {
			return path[at:]
		}
		seenAt[cur] = len(path)
		path = append(path, cur)
	}
	return path
}

// Groups returns what wfg.Graph.Groups returns on the expanded graph: the
// strongly connected components of the wait-for graph restricted to the
// deadlocked ranks, ordered by smallest member. Each set is one extra
// vertex between its waiters and its members, which preserves reachability
// between ranks (a waiter reaching itself through its own set changes no
// component).
func (a *Analysis) Groups() [][]int {
	dead := a.Deadlocked()
	if len(dead) == 0 {
		return nil
	}
	total := a.n + len(a.sets)
	index := make([]int, total) // 0 = unvisited, else visit order + 1
	low := make([]int, total)
	onStack := make([]bool, total)
	var stack []int
	var groups [][]int
	next := 1
	var connect func(v int)
	visit := func(v, t int) {
		switch {
		case index[t] == 0:
			connect(t)
			if low[t] < low[v] {
				low[v] = low[t]
			}
		case onStack[t] && index[t] < low[v]:
			low[v] = index[t]
		}
	}
	connect = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		if v < a.n {
			for _, t := range a.wait[v].Targets {
				if a.inDead[t] {
					visit(v, t)
				}
			}
			if k := a.set[v]; k >= 0 {
				visit(v, a.n+k)
			}
		} else {
			for _, m := range a.sets[v-a.n].members {
				if a.inDead[m] {
					visit(v, m)
				}
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []int
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			if w < a.n {
				comp = append(comp, w)
			}
			if w == v {
				break
			}
		}
		if len(comp) > 0 {
			sort.Ints(comp)
			groups = append(groups, comp)
		}
	}
	for _, d := range dead {
		if index[d] == 0 {
			connect(d)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// BlockedOn returns the deadlocked ranks that wait, directly or
// transitively, on one of the seeds (themselves deadlocked ranks) — seeds
// excluded, ascending. With the crashed ranks as seeds this is the
// failure-blocked set of a deadlock-by-failure report.
func (a *Analysis) BlockedOn(seeds []int) []int {
	a.Deadlocked()
	reached := make([]bool, a.n)
	setReached := make([]bool, len(a.sets))
	var queue []int
	reach := func(i int) {
		if a.inDead[i] && !reached[i] {
			reached[i] = true
			queue = append(queue, i)
		}
	}
	for _, s := range seeds {
		reach(s)
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range a.rev[t] {
			reach(w)
		}
		for _, k := range a.memberOf[t] {
			// Every waiter on the set but t itself has an arc to t; t is
			// reached already, so the exception needs no test. A second
			// reached member then covers t's own wait on the set.
			if setReached[k] {
				continue
			}
			setReached[k] = true
			for _, w := range a.sets[k].and {
				reach(w)
			}
			for _, w := range a.sets[k].or {
				reach(w)
			}
		}
	}
	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	var out []int
	for i, r := range reached {
		if r && !isSeed[i] {
			out = append(out, i)
		}
	}
	return out
}

// Simplify returns what wfg.Graph.Simplify returns for the deadlocked set
// of the expanded graph: ranks with the same semantics and the same target
// multiset share a class, "every other deadlocked rank" is the ALL-OTHERS
// class. Classes whose targets come from a shared set carry no Targets list
// (copying the set per class is the p² this analysis exists to avoid).
func (a *Analysis) Simplify() *wfg.ClassGraph {
	dead := a.Deadlocked()
	cg := &wfg.ClassGraph{Procs: len(dead)}

	// Per set: a content hash, and how many members are deadlocked.
	setHash := make([]uint64, len(a.sets))
	setDead := make([]int, len(a.sets))
	for k, rs := range a.sets {
		for _, m := range rs.members {
			setHash[k] += mix(m)
			if a.inDead[m] {
				setDead[k]++
			}
		}
	}
	allDead := func(ts []int, self int) bool {
		for _, t := range ts {
			if !a.inDead[t] || t == self {
				return false
			}
		}
		return true
	}

	type sigKey struct {
		sem       waitstate.Semantics
		allOthers bool
		n         int    // target count
		hash      uint64 // of the target multiset
	}
	sig := func(p int) sigKey {
		k := a.set[p]
		if k < 0 {
			a.extra[p] = append([]int(nil), a.wait[p].Targets...)
			sort.Ints(a.extra[p])
		}
		key := sigKey{sem: a.wait[p].Sem, n: a.degree(p)}
		if key.n == len(dead)-1 && allDead(a.extra[p], p) &&
			(k < 0 || (setDead[k] == len(a.sets[k].members) && a.inSet[p] == a.omit[p])) {
			return sigKey{sem: key.sem, allOthers: true}
		}
		for _, t := range a.extra[p] {
			key.hash += mix(t)
		}
		if k >= 0 {
			key.hash += setHash[k]
			if a.omit[p] {
				key.hash -= mix(p)
			}
		}
		return key
	}
	// sorted returns rank p's expanded targets in ascending order.
	sorted := func(p int) []int {
		if a.set[p] < 0 {
			return a.extra[p]
		}
		out := append([]int(nil), a.extra[p]...)
		for _, m := range a.sets[a.set[p]].sorted {
			if !(a.omit[p] && m == p) {
				out = append(out, m)
			}
		}
		sort.Ints(out)
		return out
	}
	// same decides whether p and q (equal signatures) have equal target
	// multisets: by their canonical descriptions when they share a set,
	// by expansion otherwise (sets of equal content, or a set against an
	// explicit list — hand-built snapshots only).
	same := func(p, q int) bool {
		if a.set[p] == a.set[q] && a.set[p] >= 0 {
			return a.omit[p] == a.omit[q] && (!a.omit[p] || p == q) && equalInts(a.extra[p], a.extra[q])
		}
		return equalInts(sorted(p), sorted(q))
	}

	bySig := map[sigKey][]int{} // signature → classes carrying it
	classOf := make([]int, a.n)
	for _, p := range dead {
		key := sig(p)
		idx := -1
		for _, c := range bySig[key] {
			if key.allOthers || same(p, cg.Classes[c].Members[0]) {
				idx = c
				break
			}
		}
		if idx < 0 {
			idx = len(cg.Classes)
			bySig[key] = append(bySig[key], idx)
			c := wfg.Class{Sem: key.sem, AllOthers: key.allOthers}
			if !c.AllOthers && a.set[p] < 0 {
				c.Targets = a.extra[p]
			}
			cg.Classes = append(cg.Classes, c)
		}
		cg.Classes[idx].Members = append(cg.Classes[idx].Members, p)
		classOf[p] = idx
	}

	// Class-level arcs: the distinct classes of each class's deadlocked
	// targets, read off its first member.
	cg.Arcs = make([][]int, len(cg.Classes))
	setClasses := make([]map[int]int, len(a.sets)) // set → class → deadlocked members in it
	for i, c := range cg.Classes {
		if c.AllOthers {
			for j := range cg.Classes {
				if j != i || len(c.Members) > 1 {
					cg.Arcs[i] = append(cg.Arcs[i], j)
				}
			}
			continue
		}
		p := c.Members[0]
		seen := map[int]bool{}
		for _, t := range a.extra[p] {
			if a.inDead[t] {
				seen[classOf[t]] = true
			}
		}
		if k := a.set[p]; k >= 0 {
			if setClasses[k] == nil {
				setClasses[k] = map[int]int{}
				for _, m := range a.sets[k].members {
					if a.inDead[m] {
						setClasses[k][classOf[m]]++
					}
				}
			}
			for cl, members := range setClasses[k] {
				if a.omit[p] && cl == i {
					members-- // p itself
				}
				if members > 0 {
					seen[cl] = true
				}
			}
		}
		cg.Arcs[i] = sortedKeys(seen)
	}
	return cg
}

// mix spreads a rank over 64 bits (splitmix64), so that sums of mixed ranks
// tell target multisets apart well enough to bucket them; equality is
// always decided by comparison, never by the hash.
func mix(r int) uint64 {
	x := uint64(r) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
