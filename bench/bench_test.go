package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dwst/internal/session"
	"dwst/must"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Expected values are Python's statistics.quantiles(xs, n=4) (the default,
// exclusive method) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25, 1}, // order does not matter
		{[]float64{1, 2, 3}, 1, 2, 3, 1},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75, 4.5 / 3.5},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := spread(c.xs); !near(got, c.wantSpread) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.wantSpread)
		}
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, m, q3)
	}
}

func TestCenterIsATrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{4, 8}, 6},
		{[]float64{1, 5, 1000}, 5}, // one dropped each side
		{[]float64{1000, 2, 4, 6, 8, 10, 12, 14, 16, 0}, 9},                                           // of ten: one each side
		{[]float64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 99, 99}, 9.5}, // of 22: two each side
	} {
		if got := center(c.xs); !near(got, c.want) {
			t.Errorf("center(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Two clusters whose shares move: the median jumps, the center slides.
	a := []float64{10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20}
	b := []float64{10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 20}
	if median(b)-median(a) != 10 || center(b)-center(a) > 1.2 {
		t.Errorf("median moved %v, center %v", median(b)-median(a), center(b)-center(a))
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		a, b     float64
		moved    float64
		within10 bool
	}{
		{100, 105, 0.05, true},
		{100, 111, 0.11, false},
		{111, 100, 0.11, false}, // a swing toward better is a swing all the same
		{100, 100, 0, true},
		{80, 100, 0.25, false},
	} {
		d := drift{metric: boundedMetric{Bound: 0.10}, a: c.a, b: c.b}
		if !near(d.moved(), c.moved) || d.ok() != c.within10 {
			t.Errorf("drift %v -> %v: moved %v ok %v, want %v %v", c.a, c.b, d.moved(), d.ok(), c.moved, c.within10)
		}
	}
	// Sets of three runs are compared by their medians: one slow run in a
	// set moves nothing.
	bounds := []boundedMetric{{Name: "latency_ms", Better: "lower", Bound: 0.1}}
	set := func(values ...float64) [][]*result {
		var runs [][]*result
		for _, v := range values {
			runs = append(runs, []*result{{Workload: "w", Metrics: map[string]measured{"latency_ms": {Value: v}}}})
		}
		return runs
	}
	a, b, slow := set(10, 9, 11), set(11.5, 11.5, 12), set(10, 30, 10.5)
	for _, d := range [][]drift{compareSets(bounds, a, b), compareSets(bounds, b, a)} {
		if len(d) != 1 || d[0].ok() || !near(d[0].moved(), 0.15) {
			t.Errorf("compareSets: %+v, want one drift of 15%% that exceeds its bound, whichever set came first", d)
		}
	}
	if d := compareSets(bounds, a, slow); !d[0].ok() || !near(d[0].moved(), 0.05) {
		t.Errorf("compareSets with one slow run: %+v, want a drift of 5%%", d)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := newRecorder("w")
	r.spans = []span{
		{ID: 0, Parent: -1, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // sticks out: clipped
	}
	self := r.selfTimes()
	if self["run"] != 50 { // 100 - (10..50) - (90..100)
		t.Errorf("self time of run = %v, want 50", self["run"])
	}
	if self["a"] != 20 || self["b"] != 30 || self["c"] != 30 {
		t.Errorf("leaf self times %v", self)
	}
	var buf bytes.Buffer
	if err := r.writeNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("NDJSON has %d lines, want 4", lines)
	}
	var off *recorder // tracing off: every method is a no-op
	off.end(off.begin("x", -1, 0))
	if len(off.selfTimes()) != 0 || off.writeNDJSON(&buf) != nil {
		t.Error("nil recorder must do nothing")
	}
}

func TestVerdictChecks(t *testing.T) {
	clean := &inprocState{def: &inproc{procs: 4}, lastWall: nil}
	ok := &must.Report{Verdict: must.VerdictNone}
	if why, race := clean.check("app", ok); why != "" || race != "" {
		t.Errorf("clean report rejected: %s%s", why, race)
	}
	for name, rep := range map[string]*must.Report{
		"deadlock":   {Verdict: must.VerdictDeadlock, Deadlock: true},
		"partial":    {Partial: true},
		"overloaded": {Overloaded: true},
		"deviation":  {EngineDeviations: []string{"cmh"}},
		"dropped":    {DroppedResults: 1},
		"mismatch":   {CallMismatches: []string{"Barrier vs Bcast"}},
		"aborted":    {AppAborted: true},
		"err":        {Err: os.ErrDeadlineExceeded},
	} {
		if why, _ := clean.check("app", rep); why == "" {
			t.Errorf("%s report accepted on a workload that must end with verdict none", name)
		}
	}
	// Lost messages on a clean verdict are a quiescence race: set apart,
	// tolerated raceAllowance times in a run, a failed unit after that.
	why, race := clean.check("app", &must.Report{LostMessages: 3})
	if why != "" || race == "" {
		t.Errorf("lost messages: why=%q race=%q, want only race set", why, race)
	}
	res := newResult("w", runConfig{})
	for i := 1; i <= raceAllowance+2; i++ {
		if good := res.quiescenceRace(race); good != (i <= raceAllowance) {
			t.Errorf("race %d: good=%v with an allowance of %d", i, good, raceAllowance)
		}
	}
	if len(res.Tolerated) != raceAllowance || res.Failed != 2 {
		t.Errorf("tolerated=%d failed=%d, want %d and 2", len(res.Tolerated), res.Failed, raceAllowance)
	}

	dl := &inprocState{def: &inproc{procs: 4, deadlock: &deadlockWant{arcs: 12, groups: 1}}}
	good := func() *must.Report {
		return &must.Report{Verdict: must.VerdictDeadlock, Deadlock: true, Deadlocked: []int{0, 1, 2, 3}, Arcs: 12, Groups: [][]int{{0, 1, 2, 3}}, SimplifiedDOT: "digraph{}"}
	}
	if why, race := dl.check("app", good()); why != "" || race != "" {
		t.Errorf("exact deadlock report rejected: %s%s", why, race)
	}
	// A deadlock among fewer ranks was reported too early: a race.
	early := &must.Report{Verdict: must.VerdictDeadlock, Deadlock: true, Deadlocked: []int{0, 1}, Arcs: 3, Groups: [][]int{{0, 1}}}
	if why, race := dl.check("app", early); why != "" || race == "" {
		t.Errorf("early detection: why=%q race=%q, want only race set", why, race)
	}
	for name, mutate := range map[string]func(r *must.Report){
		"verdict none":  func(r *must.Report) { r.Verdict = must.VerdictNone },
		"no rank":       func(r *must.Report) { r.Deadlocked = nil },
		"arc count":     func(r *must.Report) { r.Arcs = 11 },
		"group count":   func(r *must.Report) { r.Groups = append(r.Groups, []int{9}) },
		"different DOT": func(r *must.Report) { r.SimplifiedDOT = "digraph{a}" },
	} {
		r := good()
		mutate(r)
		if why, _ := dl.check("app", r); why == "" {
			t.Errorf("%s: report accepted", name)
		}
	}

	spec := &serveSpec{spec: session.Spec{Workload: "wildcard", Procs: 2}, deadlock: true}
	stats := &session.RunStats{Verdict: "deadlock", Deadlocked: []int{0, 1}}
	if why := checkOutcome(spec, session.StateDone, "", stats); why != "" {
		t.Errorf("good session rejected: %s", why)
	}
	for name, why := range map[string]string{
		"canceled":      checkOutcome(spec, session.StateCanceled, "deadline", stats),
		"no stats":      checkOutcome(spec, session.StateDone, "", nil),
		"wrong verdict": checkOutcome(spec, session.StateDone, "", &session.RunStats{Verdict: "none"}),
		"partial":       checkOutcome(spec, session.StateDone, "", &session.RunStats{Verdict: "deadlock", Deadlocked: []int{0, 1}, Partial: true}),
		"missing rank":  checkOutcome(spec, session.StateDone, "", &session.RunStats{Verdict: "deadlock", Deadlocked: []int{0}}),
	} {
		if why == "" {
			t.Errorf("%s: session accepted", name)
		}
	}
}

// BENCHMARK.json repeats the harness's workload and metric lists; this keeps
// the two in step and checks the file against the limits of its contract.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var listed []workloadDef
	for _, w := range workloads {
		if !w.tracedOnly {
			listed = append(listed, w)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness's untraced suite", len(bf.Workloads), len(listed))
	}
	for i, w := range listed {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, harness %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: file has %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the harness (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, harness %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name/unit too long", d.Name)
		}
		seen[d.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

var (
	serverOnce sync.Once
	serverBin  string
	serverErr  error
)

// mustserveBinary builds cmd/mustserve once per test binary.
func mustserveBinary(t *testing.T) string {
	t.Helper()
	serverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dwst-bench-test")
		if err != nil {
			serverErr = err
			return
		}
		serverBin = filepath.Join(dir, "mustserve")
		cmd := exec.Command("go", "build", "-o", serverBin, "./cmd/mustserve")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			serverErr = fmt.Errorf("go build ./cmd/mustserve: %v\n%s", err, out)
		}
	})
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	return serverBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin != "" {
		os.RemoveAll(filepath.Dir(serverBin))
	}
	os.Exit(code)
}

// Every workload at tiny size, untraced and traced: no timing assertions,
// only that the harness runs, every verdict check passes and every metric
// of the contract is there.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := mustserveBinary(t)
	for _, wd := range workloads {
		for _, traced := range []bool{false, true} {
			name := wd.name + "/untraced"
			if traced {
				name = wd.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 3, seconds: 0.2, tiny: true, trace: traced, mustserve: bin}
				var out bytes.Buffer
				ok, err := runOne(wd.name, cfg, "", &out)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("verdict checks failed:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
				}
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
					t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", line)
				}
				var metrics map[string]contractMetric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or unit %q != %q", d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if !strings.Contains(out.String(), "input_sha256 ") {
					t.Error("input_sha256 not printed")
				}
			})
		}
	}
}

// The same seed must measure the same inputs, and say so.
func TestInputHashIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"stress_ring", "spec_mix", "lammps_pairs"} {
		var shas [2]string
		for i := range shas {
			st, err := setupInproc(findWorkload(name), true)
			if err != nil {
				t.Fatal(err)
			}
			shas[i] = hashStreams(st.streams...)
		}
		if shas[0] != shas[1] {
			t.Errorf("%s: two captures of the same program hash differently", name)
		}
	}
	sha := func(seed int64) string {
		m, err := setupServeMix(runConfig{seed: seed, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		return m.inputSHA()
	}
	if sha(1) != sha(1) {
		t.Error("serve_mix: same seed, different input hash")
	}
	if sha(1) == sha(2) {
		t.Error("serve_mix: different seeds, same input hash")
	}
	a, _ := genSnapshot(5, 32)
	b, _ := genSnapshot(5, 32)
	if len(a.Blocked) == 0 || len(a.Blocked) != len(b.Blocked) {
		t.Errorf("tracegen snapshot: %d vs %d blocked ranks for one seed (want equal, non-zero)", len(a.Blocked), len(b.Blocked))
	}
	for rk, w := range a.Blocked {
		if len(w.Targets) != len(b.Blocked[rk].Targets) {
			t.Errorf("tracegen snapshot: rank %d differs between two builds of one seed", rk)
		}
	}
}
