package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"dwst/internal/session"
	"dwst/must"
)

// attribute builds the attribution table of one unit of work (a rep, or an
// average session): each layer's replayed cost per operation times the
// operations the unit makes, against the process CPU the unit really took.
// units divides the totals when the replays covered several units.
func attribute(res *result, lc *layerCosts, extra []attribRow, cpu time.Duration, units float64) {
	row := func(layer string, count, ns float64) attribRow {
		return attribRow{Layer: layer, Count: count / units, NS: ns, CPUSec: count / units * ns / 1e9}
	}
	rows := []attribRow{
		row("mpisim (application)", lc.calls, res.Metrics["mpisim.ns_per_call"].Value),
		row("tbon.inject", lc.events, lc.injectNS),
		row("dws (with p2pmatch, leaf)", lc.events, lc.dwsNS),
		row("tbon.peer", lc.envelopes, lc.peerNS),
		row("tbon.up (collectives)", lc.upHops, lc.upNS),
		row("tbon.down (collectives)", lc.waves*(lc.treeNodes-1), lc.downNS),
		row("collmatch (aggregators, root)", lc.members, lc.collTreeNS),
		// Every run takes one snapshot (the detection, or the final one after
		// a clean run): request and wait-request broadcast down, acks and
		// reports sent up through every layer.
		row("dws.snapshot", units, lc.snapshotNS/units),
		row("tbon.up (snapshot)", 2*lc.snapUpHops, lc.upNS),
		row("tbon.down (snapshot)", 2*lc.snapDownHops, lc.downNS),
		row("tbon.setup", units, lc.setupNS/units),
	}
	rows = append(rows, extra...)
	var layers float64
	for _, r := range rows {
		layers += r.CPUSec
	}
	res.Attribution = rows
	res.set("attrib.cpu_s", cpu.Seconds(), nil)
	res.set("attrib.layers_cpu_s", layers, nil)
	if cpu > 0 {
		res.set("attrib.gap_share", (cpu.Seconds()-layers)/cpu.Seconds(), nil)
	}
}

// layerMetrics is the traced pass of an in-process workload: the replays,
// the numbers only a real run can give (detection phases, wire counters,
// the centralized baseline), and the attribution.
func (st *inprocState) layerMetrics(res *result, cfg runConfig, reps []repRun, budget time.Duration) error {
	d := st.def
	n := len(reps)
	calls := float64(st.calls)

	// What the real runs say.
	med := func(f func(r *repRun) float64) float64 {
		xs := make([]float64, n)
		for i := range reps {
			xs[i] = f(&reps[i])
		}
		return median(xs)
	}
	sumApps := func(f func(a *appRun) float64) func(r *repRun) float64 {
		return func(r *repRun) (t float64) {
			for i := range r.apps {
				t += f(&r.apps[i])
			}
			return t
		}
	}
	res.set("mpisim.ns_per_call", med(sumApps(func(a *appRun) float64 { return float64(a.refCPU) }))/calls, nil)
	if d.deadlock != nil {
		// The phases of the rep whose total is the median: they sum to
		// detect_ms exactly, which per-phase medians would not.
		target := res.Metrics["detect_ms"].Value
		off := func(r *repRun) float64 { return math.Abs(ms(r.apps[0].timings.Total()) - target) }
		mid := &reps[0]
		for i := range reps {
			if off(&reps[i]) < off(mid) {
				mid = &reps[i]
			}
		}
		t := mid.apps[0].timings
		res.set("detect_ms", ms(t.Total()), nil)
		res.set("detect.sync_ms", ms(t.Synchronization), nil)
		res.set("detect.gather_ms", ms(t.WFGGather), nil)
		res.set("detect.build_ms", ms(t.GraphBuild), nil)
		res.set("detect.check_ms", ms(t.DeadlockCheck), nil)
		res.set("detect.output_ms", ms(t.OutputGeneration), nil)
	}
	if d.tcpWorkers > 0 {
		res.set("wire.bytes_per_call", med(sumApps(func(a *appRun) float64 { return float64(a.wire) }))/calls, nil)
		res.set("wire.retransmits_per_kcall", med(sumApps(func(a *appRun) float64 { return float64(a.retrans) }))/calls*1000, nil)
	}

	// What tracing costs: reps alternated between traced and untraced.
	var traced, untraced []float64
	for i := range reps {
		w := float64(reps[i].total(func(a *appRun) time.Duration { return a.wall }))
		if reps[i].traced {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		res.set("trace.overhead_share", (median(traced)-median(untraced))/median(untraced), nil)
	}

	if d.centralized {
		refWall := med(func(r *repRun) float64 { return float64(r.apps[0].ref) })
		st.centralizedBaseline(res, cfg, refWall, budget/10)
		budget -= budget / 10
	}

	in := &layerInput{streams: st.streams, deadlock: d.deadlock != nil}
	lc, err := replayLayers(res, cfg, in, budget)
	if err != nil {
		return err
	}

	var extra []attribRow
	if d.deadlock != nil {
		for _, ph := range []string{"detect.build_ms", "detect.check_ms", "detect.output_ms"} {
			v := res.Metrics[ph].Value
			extra = append(extra, attribRow{Layer: ph[:len(ph)-3], Count: 1, NS: v * 1e6, CPUSec: v / 1e3})
		}
	}
	if d.tcpWorkers > 0 {
		// Data frames only (rank events and peer envelopes, each encoded
		// once and decoded once); acknowledgements and keep-alives are not
		// counted, so this row is a lower bound.
		frames := lc.events + lc.envelopes
		ns := lc.gobNS + lc.frameNS
		extra = append(extra,
			attribRow{Layer: "wire + gob codec", Count: frames, NS: ns, CPUSec: frames * ns / 1e9},
			attribRow{Layer: "journal.append", Count: frames, NS: lc.journalNS, CPUSec: frames * lc.journalNS / 1e9})
	}
	cpu := time.Duration(med(sumApps(func(a *appRun) float64 { return float64(a.cpu) })))
	attribute(res, lc, extra, cpu, 1)
	return nil
}

// centralizedBaseline runs the first program under must.Centralized: the
// single-consumer architecture the paper argues against.
func (st *inprocState) centralizedBaseline(res *result, cfg runConfig, refWall float64, budget time.Duration) {
	d := st.def
	a := d.apps[0]
	var walls, elapsed []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		id := cfg.rec.begin("must.Run(centralized)/"+a.name, -1, i)
		t0 := time.Now()
		rep := must.Run(d.procs, a.prog, must.Options{Mode: must.Centralized, Timeout: toolTimeout})
		walls = append(walls, float64(time.Since(t0)))
		cfg.rec.end(id)
		elapsed = append(elapsed, float64(rep.Elapsed))
		res.Attempted++
		if rep.Deadlock || rep.AppAborted || rep.Err != nil {
			res.fail("centralized: wrong verdict")
		}
	}
	res.set("centralized.calls_per_s", float64(st.streams[0].calls)/(median(walls)/1e9), nil)
	res.set("centralized.slowdown", median(elapsed)/refWall, nil)
}

// layerMetrics is the traced pass of serve_mix: the same closed loop through
// session.Service in this process (so HTTP's share is the difference), the
// admission path's submit and reject costs, and the replays over the four
// specs' streams.
func (m *serveMix) layerMetrics(res *result, cfg runConfig, clients int, budget time.Duration) error {
	svc, err := session.NewService(session.ServiceConfig{Pool: clients, QueueDepth: 64})
	if err != nil {
		return err
	}
	var submits []float64
	var mu sync.Mutex
	cpu0 := cpuTime()
	runs, _ := m.closedLoop(clients, budget/4, func(_, idx, rep int) sessionRun {
		s := m.specs[idx]
		run := sessionRun{spec: idx}
		id := cfg.rec.begin("service/"+s.label(), -1, rep)
		defer cfg.rec.end(id)
		t0 := time.Now()
		h, err := svc.Submit(s.spec)
		submitted := time.Since(t0)
		if err != nil {
			run.why = s.label() + ": in-process submit: " + err.Error()
			return run
		}
		out, err := h.Wait(context.Background())
		run.wall = time.Since(t0)
		if err != nil {
			run.why = s.label() + ": in-process wait: " + err.Error()
			return run
		}
		run.why = checkOutcome(s, out.State, out.Error, out.Stats)
		mu.Lock()
		submits = append(submits, float64(submitted)/1e3)
		mu.Unlock()
		return run
	})
	cpu := cpuTime() - cpu0
	good := m.count(res, runs)
	var walls []float64
	for _, r := range good {
		walls = append(walls, ms(r.wall))
	}
	res.setMedian("session.submit_us", submits)
	res.setMedian("session.run_ms_p50", walls)
	res.set("mustserve.http_overhead_ms_p50", res.Metrics["verdict_p50_ms"].Value-median(walls), nil)
	svc.Close(5 * time.Second)

	res.set("session.reject_us", rejectCost(m.specs[1].spec), nil)

	// mpisim: the reference runs of set-up, per call.
	var calls, ref float64
	for _, s := range m.specs {
		calls += float64(s.stream.calls)
		ref += float64(s.refCPU)
	}
	res.set("mpisim.ns_per_call", ref/calls, nil)

	streams := make([]*stream, len(m.specs))
	for i, s := range m.specs {
		streams[i] = s.stream
	}
	lc, err := replayLayers(res, cfg, &layerInput{streams: streams}, budget*3/4)
	if err != nil {
		return err
	}
	// One unit is an average session of the mix: the replays covered one of
	// each spec, the CPU is this process's over the in-process loop.
	perSession := time.Duration(0)
	if len(good) > 0 {
		perSession = cpu / time.Duration(len(good))
	}
	attribute(res, lc, nil, perSession, float64(len(m.specs)))
	return nil
}

// rejectCost fills a one-slot service with a session that takes the
// quiescence timeout to finish, then times rejected submissions: the
// admission path's cost when the server is full.
func rejectCost(spec session.Spec) float64 {
	svc, err := session.NewService(session.ServiceConfig{Pool: 1, QueueDepth: 1})
	if err != nil {
		return 0
	}
	defer svc.Close(5 * time.Second)
	h, err := svc.Submit(spec)
	if err != nil {
		return 0
	}
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := svc.Submit(spec)
		d := time.Since(t0)
		var over *session.OverloadedError
		if !errors.As(err, &over) {
			break // the slot freed up: the first session ended
		}
		us = append(us, float64(d)/1e3)
	}
	h.Wait(context.Background())
	return median(us)
}
