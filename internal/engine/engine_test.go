package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dwst/internal/waitstate"
)

func andWait(targets ...int) Wait {
	return Wait{Sem: waitstate.AndWait, Targets: targets}
}

func orWait(targets ...int) Wait {
	return Wait{Sem: waitstate.OrWait, Targets: targets}
}

func TestClassify(t *testing.T) {
	snap := &Snapshot{Procs: 4, Dead: []int{2}, Stalled: []int{3}}
	if v := Classify(snap, []int{0, 2}); v != VerdictDeadlockByFailure {
		t.Fatalf("residue with dead rank: %v", v)
	}
	if v := Classify(snap, []int{0, 1}); v != VerdictDeadlock {
		t.Fatalf("live residue: %v", v)
	}
	if v := Classify(snap, nil); v != VerdictStalled {
		t.Fatalf("no residue, stalled ranks: %v", v)
	}
	if v := Classify(&Snapshot{Procs: 4}, nil); v != VerdictNone {
		t.Fatalf("clean snapshot: %v", v)
	}
}

// TestCMHAgainstWFGHandCases pins the snapshots that break naive probe
// formulations; each compares CMH against the reference fixpoint.
func TestCMHAgainstWFGHandCases(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"two-cycle", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(0),
		}}},
		{"chain-to-running", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(2),
		}}},
		// The mixed AND/OR case where immediate duplicate replies
		// over-approximate: i waits AND{h,w}, h waits OR{z} with z
		// executing, w waits AND{h}. z releases h, h releases w and i:
		// no deadlock.
		{"mixed-and-or-release", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: andWait(1, 2), 1: orWait(3), 2: andWait(1),
		}}},
		// OR-wait where only one branch is deadlocked: 0 waits OR{1,3},
		// 1 waits AND{2}, 2 waits AND{1}, 3 executing → 0 escapes.
		{"or-escape", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: orWait(1, 3), 1: andWait(2), 2: andWait(1),
		}}},
		// OR-knot: every branch of every OR is blocked.
		{"or-knot", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: orWait(1, 2), 1: orWait(0, 2), 2: orWait(0, 1),
		}}},
		// AND-wait with a duplicated target (Waitall on two receives from
		// the same rank): needs two grants under duplicate counting, one
		// per distinct target under set semantics — must agree anyway.
		{"duplicate-target", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1, 1), 1: andWait(0),
		}}},
		// Crashed rank modeled as AND{self}; 1 waits on it.
		{"dead-sink", &Snapshot{Procs: 3, Dead: []int{2}, Blocked: map[int]Wait{
			1: andWait(2), 2: andWait(2),
		}}},
		// Unknown rank modeled as OR over the empty set.
		{"unknown-sink", &Snapshot{Procs: 3, Unknown: []int{2}, Blocked: map[int]Wait{
			1: andWait(2), 2: orWait(),
		}}},
		// Finished ranks never satisfy a waiter: 1 finished, 0 waits on it.
		{"wait-on-finished", &Snapshot{Procs: 2, Finished: []int{1}, Blocked: map[int]Wait{
			0: andWait(1),
		}}},
		// AND over the empty set is released immediately and releases its
		// own waiters in turn.
		{"empty-and-releases", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(),
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareCMH(t, tc.snap)
		})
	}
}

// TestCMHAgainstWFGRandom is the property check behind the differential
// oracle: over thousands of seeded random snapshots (mixed AND/OR waits on
// explicit targets and on shared rank sets, finished, dead, unknown, stalled
// ranks), the probe engine must agree with the reference fixpoint on verdict
// and deadlocked set exactly — and the grouped Analysis with everything the
// materialized graph yields.
func TestCMHAgainstWFGRandom(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := randomSnapshot(rng)
		compareCMH(t, snap)
		compareAnalysis(t, snap)
		if t.Failed() {
			t.Fatalf("seed %d: snapshot %s", seed, describe(snap))
		}
	}
}

// TestAnalysisAgainstWFGHandCases pins the grouped-form corner cases: the
// waiter inside and outside its set, explicit targets the set repeats, an
// explicit self-target, sets of equal content, empty sets.
func TestAnalysisAgainstWFGHandCases(t *testing.T) {
	all := &RankSet{Members: []int{0, 1, 2, 3}}
	pair := &RankSet{Members: []int{2, 3}}
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"wildcard-storm", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Sem: waitstate.OrWait, Others: all}, 1: {Sem: waitstate.OrWait, Others: all},
			2: {Sem: waitstate.OrWait, Others: all}, 3: {Sem: waitstate.OrWait, Others: all},
		}}},
		{"storm-with-one-runner", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Sem: waitstate.OrWait, Others: all}, 1: {Sem: waitstate.OrWait, Others: all},
			2: {Sem: waitstate.OrWait, Others: all},
		}}},
		{"storm-with-one-finished", &Snapshot{Procs: 4, Finished: []int{3}, Blocked: map[int]Wait{
			0: {Sem: waitstate.OrWait, Others: all}, 1: {Sem: waitstate.OrWait, Others: all},
			2: {Sem: waitstate.OrWait, Others: all},
		}}},
		{"barrier-missing-two", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Others: pair}, 1: {Others: pair}, 2: andWait(3), 3: andWait(2),
		}}},
		{"and-on-all-others", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Others: all}, 1: {Others: all}, 2: {Others: all}, 3: {Others: all},
		}}},
		{"explicit-repeats-set", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Targets: []int{1, 1, 3}, Others: all}, 1: {Sem: waitstate.OrWait, Targets: []int{2}, Others: pair},
			2: andWait(0), 3: andWait(0),
		}}},
		{"explicit-self-in-set", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: {Targets: []int{0}, Others: &RankSet{Members: []int{0, 1}}},
			1: {Targets: []int{1}, Others: &RankSet{Members: []int{0, 1}}},
			2: andWait(0, 1),
		}}},
		{"explicit-equals-set", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: {Others: pair}, 1: andWait(3, 2), 2: andWait(3), 3: andWait(2),
		}}},
		{"empty-and-singleton-sets", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: {Sem: waitstate.OrWait, Others: &RankSet{}},
			1: {Sem: waitstate.OrWait, Others: &RankSet{Members: []int{1}}},
			2: {Others: &RankSet{Members: []int{2}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareCMH(t, tc.snap)
			compareAnalysis(t, tc.snap)
		})
	}
}

func randomSnapshot(rng *rand.Rand) *Snapshot {
	n := 2 + rng.Intn(9)
	snap := &Snapshot{Procs: n, Blocked: map[int]Wait{}}
	sets := randomSets(rng, n)
	for r := 0; r < n; r++ {
		switch rng.Intn(6) {
		case 0: // finished
			snap.Finished = append(snap.Finished, r)
		case 1: // running
		case 2: // stalled (never blocked)
			snap.Stalled = append(snap.Stalled, r)
		case 3: // dead: AND{self} sink
			snap.Dead = append(snap.Dead, r)
			snap.Blocked[r] = andWait(r)
		case 4: // unknown: OR-∅ sink
			snap.Unknown = append(snap.Unknown, r)
			snap.Blocked[r] = orWait()
		default: // blocked with random semantics and targets
			sem := waitstate.AndWait
			if rng.Intn(2) == 0 {
				sem = waitstate.OrWait
			}
			w := Wait{Sem: sem}
			if rng.Intn(3) > 0 { // explicit targets, a shared set, or both
				w.Others = sets[rng.Intn(len(sets))]
			}
			for k := rng.Intn(3) + 1 - rng.Intn(2); k > 0 && (w.Others == nil || rng.Intn(2) == 0); k-- {
				tgt := rng.Intn(n)
				if tgt != r || rng.Intn(8) == 0 {
					w.Targets = append(w.Targets, tgt) // duplicates allowed
				}
			}
			snap.Blocked[r] = w
		}
	}
	return snap
}

// randomSets draws a few overlapping rank sets over n ranks: the world,
// and random subsets (possibly empty, possibly equal in content).
func randomSets(rng *rand.Rand, n int) []*RankSet {
	world := &RankSet{}
	for r := 0; r < n; r++ {
		world.Members = append(world.Members, r)
	}
	sets := []*RankSet{world}
	for k := rng.Intn(3); k > 0; k-- {
		sub := &RankSet{}
		for _, r := range rng.Perm(n) {
			if rng.Intn(2) == 0 {
				sub.Members = append(sub.Members, r)
			}
		}
		sets = append(sets, sub)
	}
	return sets
}

// describe prints a snapshot with its set members spelled out (%+v shows
// only the set pointers).
func describe(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d finished=%v dead=%v unknown=%v stalled=%v", s.Procs, s.Finished, s.Dead, s.Unknown, s.Stalled)
	for _, rk := range sortedKeys(blockedSet(s)) {
		w := s.Blocked[rk]
		fmt.Fprintf(&b, "\n  %d: %v targets=%v", rk, w.Sem, w.Targets)
		if w.Others != nil {
			fmt.Fprintf(&b, " others=%v", w.Others.Members)
		}
	}
	return b.String()
}

// compareAnalysis holds the grouped Analysis against the materialized
// graph of the expanded snapshot: verdict, deadlocked set, arc count,
// cycle, groups, class graph and full DOT bytes, and the ranks blocked on
// the dead ones.
func compareAnalysis(t *testing.T, snap *Snapshot) {
	t.Helper()
	g := BuildWFG(snap)
	refDead := g.Deadlocked()
	refVerdict := Classify(snap, refDead)
	an := NewAnalysis(snap)
	dead := an.Deadlocked()
	if v := Classify(snap, dead); v != refVerdict {
		t.Errorf("grouped verdict %v, wfg %v", v, refVerdict)
	}
	if !equalInts(dead, refDead) {
		t.Errorf("grouped deadlocked %v, wfg %v", dead, refDead)
	}
	if an.Arcs != g.Arcs() {
		t.Errorf("grouped arcs %d, wfg %d", an.Arcs, g.Arcs())
	}
	if got, want := an.Cycle(), g.Cycle(refDead); !equalInts(got, want) {
		t.Errorf("grouped cycle %v, wfg %v", got, want)
	}
	if got, want := an.Groups(), g.Groups(refDead); !reflect.DeepEqual(got, want) {
		t.Errorf("grouped groups %v, wfg %v", got, want)
	}
	cg, refCG := an.Simplify(), g.Simplify(refDead)
	var dot, refDOT bytes.Buffer
	if err := cg.DOT(&dot); err != nil {
		t.Fatal(err)
	}
	if err := refCG.DOT(&refDOT); err != nil {
		t.Fatal(err)
	}
	if dot.String() != refDOT.String() {
		t.Errorf("grouped class graph:\n%s\nwfg:\n%s", dot.String(), refDOT.String())
	}
	if cg.Summary() != refCG.Summary() {
		t.Errorf("grouped summary %q, wfg %q", cg.Summary(), refCG.Summary())
	}
	if len(refDead) > 0 { // the report renders the graph of a deadlock only
		dot.Reset()
		refDOT.Reset()
		if err := snap.DOT(&dot, dead); err != nil {
			t.Fatal(err)
		}
		if err := g.DOT(&refDOT, refDead); err != nil {
			t.Fatal(err)
		}
		if dot.String() != refDOT.String() {
			t.Errorf("streamed DOT:\n%s\nwfg:\n%s", dot.String(), refDOT.String())
		}
	}

	// Reverse reachability from the dead ranks inside the residue, the
	// slow way: a rank is blocked on them once one of its targets is.
	inDead := map[int]bool{}
	for _, d := range refDead {
		inDead[d] = true
	}
	reached := map[int]bool{}
	var seeds []int
	for _, d := range snap.Dead {
		if inDead[d] {
			seeds = append(seeds, d)
			reached[d] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, rk := range refDead {
			for _, tgt := range g.Targets(rk) {
				if !reached[rk] && reached[int(tgt)] {
					reached[rk], changed = true, true
				}
			}
		}
	}
	var want []int
	for _, rk := range refDead {
		if reached[rk] && !contains(seeds, rk) {
			want = append(want, rk)
		}
	}
	if got := an.BlockedOn(seeds); !equalInts(got, want) {
		t.Errorf("blocked on %v: grouped %v, wfg %v", seeds, got, want)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func compareCMH(t *testing.T, snap *Snapshot) {
	t.Helper()
	refVerdict, refDead, _ := WFG{}.Analyze(Input{Snapshot: snap})
	v, dl, err := CMH{}.Analyze(Input{Snapshot: snap})
	if err != nil {
		t.Fatalf("cmh error: %v", err)
	}
	if v != refVerdict {
		t.Errorf("cmh verdict %v, wfg %v", v, refVerdict)
	}
	if !equalInts(dl, refDead) {
		t.Errorf("cmh deadlocked %v, wfg %v", dl, refDead)
	}
}

func TestTwoCycleFindsMutualWait(t *testing.T) {
	snap := &Snapshot{Procs: 4, Blocked: map[int]Wait{
		1: andWait(3), 3: andWait(1),
	}}
	v, dl, err := TwoCycle{}.Analyze(Input{Snapshot: snap})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if v != VerdictDeadlock || !equalInts(dl, []int{1, 3}) {
		t.Fatalf("verdict %v, witness %v", v, dl)
	}
	// An OR-wait with an alternative target is not pinned on the peer.
	snap = &Snapshot{Procs: 3, Blocked: map[int]Wait{
		0: orWait(1, 2), 1: andWait(0),
	}}
	if _, _, err := (TwoCycle{}).Analyze(Input{Snapshot: snap}); !errors.Is(err, ErrInconclusive) {
		t.Fatalf("want ErrInconclusive for unpinned OR pair, got %v", err)
	}
	// A single-target OR is pinned just like an AND.
	snap = &Snapshot{Procs: 2, Blocked: map[int]Wait{
		0: orWait(1), 1: andWait(0),
	}}
	v, dl, err = TwoCycle{}.Analyze(Input{Snapshot: snap})
	if err != nil || v != VerdictDeadlock || !equalInts(dl, []int{0, 1}) {
		t.Fatalf("pinned OR pair: %v %v %v", v, dl, err)
	}
}

// TestTwoCycleWitnessSubset verifies the partial-detector contract the
// differential comparison relies on: whenever the screen fires, its
// witness is inside the reference residue.
func TestTwoCycleWitnessSubset(t *testing.T) {
	fired := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := randomSnapshot(rng)
		v, dl, err := TwoCycle{}.Analyze(Input{Snapshot: snap})
		if errors.Is(err, ErrInconclusive) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fired++
		if !v.Deadlockish() {
			t.Fatalf("seed %d: fired with verdict %v", seed, v)
		}
		_, refDead, _ := WFG{}.Analyze(Input{Snapshot: snap})
		if !subsetOf(dl, refDead) {
			t.Fatalf("seed %d: witness %v not in residue %v (snapshot %+v)", seed, dl, refDead, snap)
		}
	}
	if fired == 0 {
		t.Fatal("screen never fired across the random census")
	}
}

// brokenEngine deliberately inverts the reference verdict — the seeded
// fault the differential oracle must catch.
type brokenEngine struct{ verdict Verdict }

func (brokenEngine) Name() string { return "broken" }
func (b brokenEngine) Analyze(Input) (Verdict, []int, error) {
	if b.verdict == VerdictDeadlock {
		return VerdictDeadlock, []int{0, 1}, nil
	}
	return b.verdict, nil, nil
}

type errorEngine struct{}

func (errorEngine) Name() string { return "erroring" }
func (errorEngine) Analyze(Input) (Verdict, []int, error) {
	return VerdictNone, nil, errors.New("boom")
}

func TestDeviations(t *testing.T) {
	ref := Finding{Engine: "wfg", Verdict: VerdictNone}
	engines := []Engine{brokenEngine{verdict: VerdictDeadlock}, errorEngine{}, CMH{}}
	findings := RunAll(engines, Input{Snapshot: &Snapshot{Procs: 2}})
	devs := Deviations(ref, engines, findings)
	if len(devs) != 2 {
		t.Fatalf("want 2 deviations (broken verdict + engine error), got %v", devs)
	}

	// Agreement produces none; inconclusive partial detectors are skipped.
	snap := &Snapshot{Procs: 2, Blocked: map[int]Wait{0: andWait(1), 1: andWait(0)}}
	refVerdict, refDead, _ := WFG{}.Analyze(Input{Snapshot: snap})
	ref = Finding{Engine: "wfg", Verdict: refVerdict, Deadlocked: refDead}
	engines = []Engine{CMH{}, TwoCycle{}}
	devs = Deviations(ref, engines, RunAll(engines, Input{Snapshot: snap}))
	if len(devs) != 0 {
		t.Fatalf("agreeing engines reported deviations: %v", devs)
	}

	// A partial detector claiming a deadlock the reference denies is a
	// deviation even though its exact set is not checked.
	ref = Finding{Engine: "wfg", Verdict: VerdictNone}
	liar := brokenPartial{}
	in := Input{Snapshot: &Snapshot{Procs: 2}}
	devs = Deviations(ref, []Engine{liar}, RunAll([]Engine{liar}, in))
	if len(devs) != 1 {
		t.Fatalf("partial-detector false positive missed: %v", devs)
	}
}

type brokenPartial struct{}

func (brokenPartial) Name() string  { return "broken-partial" }
func (brokenPartial) Partial() bool { return true }
func (brokenPartial) Analyze(Input) (Verdict, []int, error) {
	return VerdictDeadlock, []int{0, 1}, nil
}

func TestVerdictStrings(t *testing.T) {
	f := Finding{Engine: "x", Err: ErrInapplicable}
	if s := f.VerdictString(); s != "inapplicable" {
		t.Fatalf("inapplicable finding: %q", s)
	}
	f = Finding{Engine: "x", Err: ErrInconclusive}
	if s := f.VerdictString(); s != "inconclusive" {
		t.Fatalf("inconclusive finding: %q", s)
	}
	f = Finding{Engine: "x", Verdict: VerdictDeadlock}
	if s := f.VerdictString(); s != "deadlock" {
		t.Fatalf("deadlock finding: %q", s)
	}
}

func TestSortedDeadlockedOutput(t *testing.T) {
	snap := &Snapshot{Procs: 6, Blocked: map[int]Wait{
		5: andWait(4), 4: andWait(5), 1: andWait(0), 0: andWait(1),
	}}
	_, dl, err := CMH{}.Analyze(Input{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(dl) {
		t.Fatalf("deadlocked set not ascending: %v", dl)
	}
	if !equalInts(dl, []int{0, 1, 4, 5}) {
		t.Fatalf("deadlocked = %v", dl)
	}
}
