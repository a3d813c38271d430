package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric. The lists below are the single source the
// harness prints from; BENCHMARK.json repeats them (a test keeps the two in
// step) and adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports with tracing off: what a
// user of the tool sees. Each is defined the same way on every workload
// over "units" — one must.Run per program, or one HTTP session.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"calls_per_s", "1/s", "higher"},
	{"app_slowdown", "x", "lower"},
	{"tool_tail_ms", "ms", "lower"},
	{"verdict_wall_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"allocs_per_call", "count", "lower"},
	{"alloc_mb_per_run", "MiB", "lower"},
}

// workloadE2E are end-to-end metrics that exist on some workloads only:
// detection time on the deadlock workloads (must.Report has no timings of a
// clean run's final detection), session throughput and tail latency on
// serve_mix. They are measured in the same untraced runs and printed beside
// the others; the machine-readable result carries them in the per-layer
// list, where a workload that has no such number reports 0.
var workloadE2E = []metricDef{
	{"detect_ms", "ms", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_p95_ms", "ms", "lower"},
}

// perLayer are the traced pass's metrics: one module each, measured by
// replaying the workload's captured event stream through the module's
// public functions.
var perLayer = append(append([]metricDef{}, workloadE2E...), []metricDef{
	{"mpisim.ns_per_call", "ns", "lower"},
	{"mpisim.events", "count", "lower"},
	{"p2pmatch.ns_per_op", "ns", "lower"},
	{"p2pmatch.allocs_per_op", "count", "lower"},
	{"p2pmatch.matches", "count", "higher"},
	{"collmatch.ns_per_member", "ns", "lower"},
	{"collmatch.waves", "count", "higher"},
	{"dws.ns_per_event", "ns", "lower"},
	{"dws.allocs_per_event", "count", "lower"},
	{"dws.msgs_per_call", "count", "lower"},
	{"dws.window_hw", "count", "lower"},
	{"dws.msgs_per_batch", "count", "higher"},
	{"dws.snapshot_us_per_rank", "us", "lower"},
	{"tbon.inject_ns_per_event", "ns", "lower"},
	{"tbon.peer_ns_per_msg", "ns", "lower"},
	{"tbon.up_ns_per_msg", "ns", "lower"},
	{"tbon.down_ns_per_msg", "ns", "lower"},
	{"tbon.allocs_per_msg", "count", "lower"},
	{"tbon.setup_ms", "ms", "lower"},
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.gob_ns_per_payload", "ns", "lower"},
	{"wire.bytes_per_call", "B", "lower"},
	{"wire.retransmits_per_kcall", "count", "lower"},
	{"journal.append_ns_per_entry", "ns", "lower"},
	{"journal.checkpoint_us", "us", "lower"},
	{"journal.high_water", "count", "lower"},
	{"detect.sync_ms", "ms", "lower"},
	{"detect.gather_ms", "ms", "lower"},
	{"detect.build_ms", "ms", "lower"},
	{"detect.check_ms", "ms", "lower"},
	{"detect.output_ms", "ms", "lower"},
	{"detect.root_ns_per_arc", "ns", "lower"},
	{"engine.build_ns_per_arc", "ns", "lower"},
	{"engine.wfg_ns_per_arc", "ns", "lower"},
	{"engine.cmh_ns_per_arc", "ns", "lower"},
	{"engine.twocycle_ns_per_arc", "ns", "lower"},
	{"wfg.deadlocked_ns_per_arc", "ns", "lower"},
	{"wfg.simplify_ns_per_arc", "ns", "lower"},
	{"wfg.simplify_classes", "count", "lower"},
	{"wfg.dot_ns_per_arc", "ns", "lower"},
	{"report.dot_ns_per_arc", "ns", "lower"},
	{"report.html_us_per_rank", "us", "lower"},
	{"report.bytes_out", "B", "lower"},
	{"session.submit_us", "us", "lower"},
	{"session.reject_us", "us", "lower"},
	{"session.run_ms_p50", "ms", "lower"},
	{"mustserve.http_overhead_ms_p50", "ms", "lower"},
	{"mustserve.startup_ms", "ms", "lower"},
	{"mustserve.rejected", "count", "lower"},
	{"centralized.calls_per_s", "1/s", "higher"},
	{"centralized.slowdown", "x", "lower"},
	{"spec.104.milc.slowdown", "x", "lower"},
	{"spec.115.fds4.slowdown", "x", "lower"},
	{"spec.121.pop2.slowdown", "x", "lower"},
	{"spec.128.GAPgeofem.slowdown", "x", "lower"},
	{"spec.130.socorro.slowdown", "x", "lower"},
	{"attrib.cpu_s", "s", "lower"},
	{"attrib.layers_cpu_s", "s", "lower"},
	{"attrib.gap_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}...)

// measured is one metric's value with the distribution of the per-unit
// samples behind it (N = 0: a single measurement, no distribution).
type measured struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// attribRow is one line of the attribution table: a layer's cost per
// operation times the operations one run of the workload makes.
type attribRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count"`
	NS     float64 `json:"ns_per_op"`
	CPUSec float64 `json:"cpu_s"`
}

// result is everything one workload run produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	InputSHA  string   `json:"input_sha256"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Tolerated are the units that hit a quiescence race within
	// raceAllowance; beyond it they are Failures. See quiescenceRace.
	Tolerated   []string            `json:"tolerated_quiescence_races,omitempty"`
	Metrics     map[string]measured `json:"metrics"`
	Attribution []attribRow         `json:"attribution,omitempty"`
}

func newResult(workload string, cfg runConfig) *result {
	return &result{Workload: workload, Seed: cfg.seed, Traced: cfg.trace, Metrics: map[string]measured{}}
}

// set records a metric whose value is given and whose samples only
// describe its distribution.
func (r *result) set(name string, value float64, samples []float64) {
	q1, _, q3 := quartiles(samples)
	r.Metrics[name] = measured{Value: value, Q1: q1, Q3: q3, N: len(samples)}
}

// setMedian records a metric as the median of its samples.
func (r *result) setMedian(name string, samples []float64) {
	r.set(name, median(samples), samples)
}

// fail counts one failed unit, keeping the first few reasons.
func (r *result) fail(why string) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, why)
	}
}

// raceAllowance is how many units of one run may hit a quiescence race
// before every further one is a failed unit.
const raceAllowance = 1

// quiescenceRace counts a unit whose report is true of the moment the tool
// took its snapshot, but the moment was wrong: the tool's driver decides by
// timers (handled counter unchanged for the 50 ms Timeout, or for 10 ms
// after the application ended) that nothing more will come. Two forms occur
// at the parent commit, both under a scheduling stall on this two-core box:
// a clean run whose final snapshot was taken before the tool had drained,
// so deferred events read as lost messages (once in about 600 runs of this
// benchmark), and a deadlock reported among the ranks that had reached it
// while the others were still starting (lammps_pairs, p=4096: once in about
// 2000 reps). A failed unit that does not repeat would make a driver that
// requires `correct` reject at random, so one per run is tolerated and
// printed; a change that makes either race common reads two or more in a
// run, and fails. It reports whether the unit still counts as good.
func (r *result) quiescenceRace(why string) bool {
	if len(r.Tolerated) < raceAllowance {
		r.Tolerated = append(r.Tolerated, why)
		return true
	}
	r.fail(why)
	return false
}

func (r *result) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// printTable writes the named metrics as name, unit, median, quartiles, n.
func (r *result) printTable(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "%s — %s (seed %d)\n", title, r.Workload, r.Seed)
	fmt.Fprintf(w, "  %-34s %-6s %14s %14s %14s %6s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		if m.N == 0 {
			fmt.Fprintf(w, "  %-34s %-6s %14.4f %14s %14s %6s\n", d.Name, d.Unit, m.Value, "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "  %-34s %-6s %14.4f %14.4f %14.4f %6d\n", d.Name, d.Unit, m.Value, m.Q1, m.Q3, m.N)
	}
}

func (r *result) printAttribution(w io.Writer) {
	if len(r.Attribution) == 0 {
		return
	}
	fmt.Fprintf(w, "attribution — %s: CPU of one unit (a rep; an average session) vs sum of layer cost x count\n", r.Workload)
	fmt.Fprintf(w, "  %-28s %14s %12s %12s\n", "layer", "count", "ns/op", "cpu_s")
	rows := append([]attribRow(nil), r.Attribution...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].CPUSec > rows[j].CPUSec })
	for _, a := range rows {
		fmt.Fprintf(w, "  %-28s %14.0f %12.1f %12.6f\n", a.Layer, a.Count, a.NS, a.CPUSec)
	}
	fmt.Fprintf(w, "  %-28s %14s %12s %12.6f\n", "sum of layers", "", "", r.Metrics["attrib.layers_cpu_s"].Value)
	fmt.Fprintf(w, "  %-28s %14s %12s %12.6f\n", "measured process CPU", "", "", r.Metrics["attrib.cpu_s"].Value)
	fmt.Fprintf(w, "  %-28s %14s %12s %11.1f%%\n", "unexplained (gap_share)", "", "", 100*r.Metrics["attrib.gap_share"].Value)
}

// printSelfTimes lists where the traced run's own time went: per span name,
// duration minus what child spans cover, largest first.
func printSelfTimes(w io.Writer, rec *recorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by span (span minus children), top %d of %d\n", min(12, len(names)), len(names))
	for _, n := range names[:min(12, len(names))] {
		fmt.Fprintf(w, "  %-34s %12.3f ms\n", n, ms(self[n]))
	}
}

func (r *result) printFailures(w io.Writer) {
	fmt.Fprintf(w, "  fail_ratio %d/%d = %.4f\n", r.Failed, r.Attempted, r.failRatio())
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, t := range r.Tolerated {
		fmt.Fprintf(w, "  tolerated quiescence race (%d per run): %s\n", raceAllowance, t)
	}
	fmt.Fprintf(w, "  input_sha256 %s\n", r.InputSHA)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
