package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dwst/mpi"
	"dwst/must"
)

// runConfig is one workload run's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	// mustserve is the server binary serve_mix drives.
	mustserve string
	rec       *recorder // nil with tracing off
}

// setupRounds is how often a run repeats its set-up to report a median.
const setupRounds = 5

// minReps is the least number of timed reps, however short the run.
const minReps = 3

// appRun is what one reference run plus one tool run of one program left
// behind. The report itself is dropped at once: a wildcard_storm report
// holds a 16 MB DOT string.
type appRun struct {
	ref     time.Duration // mpi.Run wall clock
	refCPU  time.Duration // process CPU spent inside mpi.Run
	wall    time.Duration // must.Run wall clock: call issued to verdict in hand
	elapsed time.Duration // rep.Elapsed: the application under the tool
	cpu     time.Duration // process CPU spent inside must.Run
	mallocs uint64
	bytes   uint64
	timings must.Timings
	wire    uint64 // Report.BytesOnWire
	retrans uint64 // Report.Retransmits
}

// repRun is one timed rep: every program of the workload, once.
type repRun struct {
	apps   []appRun
	traced bool
	race   string // non-empty: a run of the rep hit a quiescence race (see result.quiescenceRace)
}

func (r *repRun) total(f func(a *appRun) time.Duration) time.Duration {
	var t time.Duration
	for i := range r.apps {
		t += f(&r.apps[i])
	}
	return t
}

// inprocState is an in-process workload after set-up.
type inprocState struct {
	def     *inproc
	streams []*stream // one per app
	calls   int       // MPI calls of one rep (all apps)
	dotSHA  string    // SimplifiedDOT hash every deadlock report must repeat
	// lastWall is each program's most recent tool-run wall clock.
	lastWall map[string]time.Duration
}

// setupInproc builds the programs and captures each one's event stream.
func setupInproc(wd *workloadDef, tiny bool) (*inprocState, error) {
	d := wd.build(tiny)
	st := &inprocState{def: d, lastWall: map[string]time.Duration{}}
	mo := d.mpiOptions()
	for _, a := range d.apps {
		s, err := capture(d.procs, a.prog, mo)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", wd.name, a.name, err)
		}
		if s.hung != (d.deadlock != nil) {
			return nil, fmt.Errorf("%s/%s: capture hung=%v, workload expects deadlock=%v", wd.name, a.name, s.hung, d.deadlock != nil)
		}
		st.streams = append(st.streams, s)
		st.calls += s.calls
	}
	return st, nil
}

// runTool runs one program under the tool the way the workload says.
func (st *inprocState) runTool(prog mpi.Program, opts must.Options) *must.Report {
	d := st.def
	if d.tcpWorkers == 0 {
		return must.Run(d.procs, prog, opts)
	}
	var wg sync.WaitGroup
	errs := make([]error, d.tcpWorkers)
	opts.Net = &must.NetOptions{
		Workers: d.tcpWorkers,
		Recover: true,
		OnListen: func(addr string) {
			for w := 0; w < d.tcpWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = must.RunWorker(addr, w, must.WorkerOptions{})
				}(w)
			}
		},
	}
	rep := must.Run(d.procs, prog, opts)
	wg.Wait()
	if rep.Err == nil {
		rep.Err = errors.Join(errs...)
	}
	return rep
}

// check returns why a report is wrong, or "". race is set instead when the
// report's only defect is that the tool misjudged quiescence, which
// result.quiescenceRace tolerates once per run.
func (st *inprocState) check(name string, rep *must.Report) (why, race string) {
	d := st.def
	switch {
	case rep.Err != nil:
		return fmt.Sprintf("%s: run failed: %v", name, rep.Err), ""
	case rep.Partial:
		return fmt.Sprintf("%s: partial report (unknown ranks %v)", name, rep.UnknownRanks), ""
	case rep.Overloaded:
		return name + ": overloaded", ""
	case len(rep.EngineDeviations) > 0:
		return fmt.Sprintf("%s: engine deviations %v", name, rep.EngineDeviations), ""
	case rep.DroppedResults > 0:
		return fmt.Sprintf("%s: %d dropped results", name, rep.DroppedResults), ""
	}
	if d.deadlock == nil {
		switch {
		case rep.Verdict != must.VerdictNone || rep.Deadlock:
			return fmt.Sprintf("%s: verdict %v, want none", name, rep.Verdict), ""
		case rep.AppAborted:
			return fmt.Sprintf("%s: application aborted: %v", name, rep.AbortCause), ""
		case len(rep.CallMismatches) > 0:
			return fmt.Sprintf("%s: call mismatches %v", name, rep.CallMismatches), ""
		case rep.LostMessages != 0:
			return "", fmt.Sprintf("%s: %d lost messages reported on a clean run", name, rep.LostMessages)
		}
		return "", ""
	}
	if k := len(rep.Deadlocked); rep.Verdict == must.VerdictDeadlock && 0 < k && k < d.procs {
		// A graph of another moment: its arcs and groups are not the ones
		// to compare.
		return "", fmt.Sprintf("%s: deadlock reported among %d ranks before the other %d had reached theirs", name, k, d.procs-k)
	}
	sum := sha256.Sum256([]byte(rep.SimplifiedDOT))
	sha := hex.EncodeToString(sum[:])
	if st.dotSHA == "" {
		st.dotSHA = sha
	}
	switch {
	case rep.Verdict != must.VerdictDeadlock:
		return fmt.Sprintf("%s: verdict %v, want deadlock", name, rep.Verdict), ""
	case len(rep.Deadlocked) != d.procs:
		return fmt.Sprintf("%s: %d deadlocked ranks, want %d", name, len(rep.Deadlocked), d.procs), ""
	case rep.Arcs != d.deadlock.arcs:
		return fmt.Sprintf("%s: %d arcs, want %d", name, rep.Arcs, d.deadlock.arcs), ""
	case len(rep.Groups) != d.deadlock.groups:
		return fmt.Sprintf("%s: %d groups, want %d", name, len(rep.Groups), d.deadlock.groups), ""
	case sha != st.dotSHA:
		return name + ": SimplifiedDOT differs from the first rep's", ""
	}
	return "", ""
}

// rep runs every program once — reference run, then tool run — and returns
// the measurements and the reasons any check failed. Spans go to rec when
// it is non-nil.
func (st *inprocState) rep(idx int, rec *recorder) (repRun, []string) {
	d := st.def
	mo := d.mpiOptions()
	out := repRun{traced: rec != nil}
	var failures []string
	var before, after runtime.MemStats
	for _, a := range d.apps {
		var ar appRun

		// A reference run can be a hundred times shorter than the tool run
		// it is compared with (stress_tcp), and the shorter the noisier:
		// repeat it until it has had a twentieth of the last tool run's
		// time, and keep the median.
		var refs, refCPUs []float64
		for spent := time.Duration(0); len(refs) == 0 || (spent < st.lastWall[a.name]/20 && len(refs) < 9); {
			cpu0 := cpuTime()
			id := rec.begin("mpi.Run/"+a.name, -1, idx)
			t0 := time.Now()
			err := mpi.Run(d.procs, a.prog, mo)
			spent += time.Since(t0)
			refs = append(refs, float64(time.Since(t0)))
			rec.end(id)
			refCPUs = append(refCPUs, float64(cpuTime()-cpu0))
			if hung := errors.Is(err, mpi.ErrHang); hung != (d.deadlock != nil) || (err != nil && !hung) {
				failures = append(failures, fmt.Sprintf("%s: reference run: %v", a.name, err))
			}
		}
		ar.ref, ar.refCPU = time.Duration(median(refs)), time.Duration(median(refCPUs))

		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		id := rec.begin("must.Run/"+a.name, -1, idx)
		t0 := time.Now()
		rep := st.runTool(a.prog, d.opts)
		ar.wall = time.Since(t0)
		rec.end(id)
		st.lastWall[a.name] = ar.wall
		ar.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&after)

		ar.elapsed = rep.Elapsed
		ar.mallocs = after.Mallocs - before.Mallocs
		ar.bytes = after.TotalAlloc - before.TotalAlloc
		ar.timings = rep.Timings
		ar.wire = rep.BytesOnWire
		ar.retrans = rep.Retransmits
		why, race := st.check(a.name, rep)
		if why != "" {
			failures = append(failures, why)
		}
		if race != "" {
			out.race = race
		}
		synthChildren(rec, id, idx, &ar)
		out.apps = append(out.apps, ar)
	}
	return out, failures
}

// synthChildren lays the tool's own account of a run (Elapsed, the
// detection phases, the tail) out as children of the must.Run span. The
// durations are the tool's; only the positions are ours: the application
// first, the detection phases at its end (a detected deadlock is what ends
// it), then the tail — tree build, backlog drain, final detection and
// teardown, which must.Run does not separate.
func synthChildren(rec *recorder, parent, idx int, ar *appRun) {
	if rec == nil {
		return
	}
	start := rec.start(parent)
	appEnd := rec.synth("app", parent, idx, start, ar.elapsed)
	at := appEnd - ar.timings.Total().Nanoseconds()
	t := ar.timings
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"detect.sync", t.Synchronization}, {"detect.gather", t.WFGGather}, {"detect.build", t.GraphBuild}, {"detect.check", t.DeadlockCheck}, {"detect.output", t.OutputGeneration}} {
		if ph.d > 0 {
			at = rec.synth(ph.name, parent, idx, at, ph.d)
		}
	}
	rec.synth("tail", parent, idx, appEnd, ar.wall-ar.elapsed)
}

// measure warms up with one untimed rep, then runs timed reps for budget
// (at least minReps). Under a recorder every second rep still runs with
// tracing off, so the traced pass can report what tracing costs.
func (st *inprocState) measure(res *result, rec *recorder, budget time.Duration) []repRun {
	tally := func(label string, run repRun, fails []string) {
		switch {
		case len(fails) > 0:
			res.fail(label + ": " + fails[0])
		case run.race != "":
			res.quiescenceRace(label + ": " + run.race)
		}
	}
	// A warm-up rep is a checked unit only when it goes wrong.
	if run, fails := st.rep(-1, nil); len(fails) > 0 || run.race != "" {
		res.Attempted++
		tally("warm-up", run, fails)
	}
	var reps []repRun
	deadline := time.Now().Add(budget)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		r := rec
		if i%2 == 1 {
			r = nil
		}
		run, fails := st.rep(i, r)
		reps = append(reps, run)
		res.Attempted++
		tally(fmt.Sprintf("rep %d", i), run, fails)
	}
	return reps
}

// endToEndMetrics turns the timed reps into the end-to-end metrics.
func (st *inprocState) endToEndMetrics(res *result, reps []repRun) {
	d := st.def
	n := len(reps)
	nApps := len(d.apps)
	calls := float64(st.calls)

	// Per-program centres over reps.
	col := func(app int, f func(a *appRun) time.Duration) []float64 {
		out := make([]float64, n)
		for i := range reps {
			out[i] = float64(f(&reps[i].apps[app]))
		}
		return out
	}
	wallOf := func(a *appRun) time.Duration { return a.wall }
	refOf := func(a *appRun) time.Duration { return a.ref }
	elapsedOf := func(a *appRun) time.Duration { return a.elapsed }
	var sumWall float64
	refWall := make([]float64, nApps)
	slow := make([]float64, nApps)
	for a := 0; a < nApps; a++ {
		sumWall += center(col(a, wallOf))
		refWall[a] = center(col(a, refOf))
		slow[a] = center(col(a, elapsedOf)) / refWall[a]
		if nApps > 1 {
			res.set("spec."+d.apps[a].name+".slowdown", slow[a], nil)
		}
	}

	fired := time.Duration(0)
	if d.deadlock != nil {
		fired = toolTimeout * time.Duration(nApps)
	}
	var perCall, slowdown, tail, verdict, detect, allocs, allocMB []float64
	var mallocs, bytes uint64
	for i := range reps {
		r := &reps[i]
		wall := r.total(wallOf)
		perCall = append(perCall, calls/wall.Seconds())
		ratios := make([]float64, nApps)
		for a := range r.apps {
			ratios[a] = float64(r.apps[a].elapsed) / refWall[a]
		}
		slowdown = append(slowdown, geomean(ratios))
		tail = append(tail, ms(wall-r.total(elapsedOf)))
		verdict = append(verdict, ms(wall-fired))
		detect = append(detect, ms(r.total(func(a *appRun) time.Duration { return a.timings.Total() })))
		var m, b uint64
		for a := range r.apps {
			m += r.apps[a].mallocs
			b += r.apps[a].bytes
		}
		mallocs += m
		bytes += b
		allocs = append(allocs, float64(m)/calls)
		allocMB = append(allocMB, float64(b)/mib)
	}
	res.set("calls_per_s", calls/(sumWall/1e9), perCall)
	res.set("app_slowdown", geomean(slow), slowdown)
	res.set("tool_tail_ms", center(tail), tail)
	res.set("verdict_wall_ms", center(verdict), verdict)
	res.set("allocs_per_call", float64(mallocs)/(calls*float64(n)), allocs)
	res.set("alloc_mb_per_run", float64(bytes)/mib/float64(n), allocMB)
	res.set("peak_rss_mb", peakRSSMiB(), nil)
	if d.deadlock != nil {
		res.setMedian("detect_ms", detect)
	}
}

// runInproc is one run of an in-process workload.
func runInproc(wd *workloadDef, cfg runConfig) (*result, error) {
	res := newResult(wd.name, cfg)
	var st *inprocState
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		id := cfg.rec.begin("setup", -1, i)
		t0 := time.Now()
		s, err := setupInproc(wd, cfg.tiny)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.rec.end(id)
		st = s
	}
	res.setMedian("setup_s", setups)
	res.InputSHA = hashStreams(st.streams...)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		reps := st.measure(res, nil, budget)
		st.endToEndMetrics(res, reps)
		return res, nil
	}
	// Traced pass: a shorter end-to-end part with spans around every run
	// (every second rep untraced, for the overhead), then the replays.
	reps := st.measure(res, cfg.rec, budget*2/5)
	st.endToEndMetrics(res, reps)
	return res, st.layerMetrics(res, cfg, reps, budget*3/5)
}
