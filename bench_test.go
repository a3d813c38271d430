// Benchmark harness regenerating the paper's evaluation (Section 6).
//
// One benchmark family per table/figure:
//
//	Fig. 9  — BenchmarkFig9Stress*:       stress-test slowdown, distributed
//	          (fan-in 2/4/8) vs centralized, across process counts
//	Fig.10  — BenchmarkFig10Wildcard*:    total detection time + phase
//	          breakdown for the p²-arc wildcard deadlock
//	Fig.11  — BenchmarkFig11Lammps*:      detection time for the
//	          126.lammps-style send-send deadlock
//	Fig.12  — BenchmarkFig12Spec*:        SPEC MPI2007 proxy slowdowns
//	Ablations — BenchmarkAblation*:       design-choice studies called out
//	          in DESIGN.md (fan-in, Ssend throttling for 137.lu, wait-state
//	          message priority for the trace window)
//
// Slowdowns are emitted as the custom metric "slowdown" (ratio vs a
// reference run without the tool); detection phases are emitted in
// microseconds. Larger scales (≥1024 ranks) live in cmd/stress,
// cmd/detecttime and cmd/specmpi, which print the full paper-style series.
package dwst_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

const (
	stressIters  = 30
	benchTimeout = 200 * time.Millisecond
)

// refTime measures a reference run (no tool attached). The caller's
// options are respected; HangTimeout only gets a defensive default when
// unset (a hung reference would otherwise wedge the benchmark binary).
//
// testing.Benchmark cannot be nested inside a running benchmark (it
// deadlocks on the global benchmark lock), so the same discipline is
// applied by hand: grow the iteration count until the measured total is
// long enough to trust, then report the mean — not a best-of-2 wall-clock
// sample.
func refTime(b *testing.B, procs int, prog mpi.Program, opts mpi.Options) time.Duration {
	b.Helper()
	if opts.HangTimeout == 0 {
		opts.HangTimeout = 60 * time.Second
	}
	const minTotal = 50 * time.Millisecond
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := mpi.Run(procs, prog, opts); err != nil {
				b.Fatalf("reference run: %v", err)
			}
		}
		if total := time.Since(start); total >= minTotal || n >= 64 {
			return total / time.Duration(n)
		}
	}
}

// --- Figure 9: stress-test slowdown ---------------------------------------

func BenchmarkFig9StressDistributed(b *testing.B) {
	for _, procs := range []int{16, 64, 256} {
		for _, fanIn := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("procs=%d/fanin=%d", procs, fanIn), func(b *testing.B) {
				prog := workload.Stress(stressIters)
				ref := refTime(b, procs, prog, mpi.Options{})
				b.ReportAllocs()
				b.ResetTimer()
				var total time.Duration
				for i := 0; i < b.N; i++ {
					rep := must.Run(procs, prog, must.Options{FanIn: fanIn, Timeout: benchTimeout})
					if rep.Deadlock {
						b.Fatal("stress must not deadlock")
					}
					total += rep.Elapsed
				}
				b.ReportMetric(float64(total)/float64(b.N)/float64(ref), "slowdown")
			})
		}
	}
}

func BenchmarkFig9StressCentralized(b *testing.B) {
	// The paper's centralized implementation scaled to 512 processes only;
	// the growth of this series against the flat distributed one is the
	// headline comparison.
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prog := workload.Stress(stressIters)
			ref := refTime(b, procs, prog, mpi.Options{})
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				rep := must.Run(procs, prog, must.Options{Mode: must.Centralized, Timeout: benchTimeout})
				if rep.Deadlock {
					b.Fatal("stress must not deadlock")
				}
				total += rep.Elapsed
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(ref), "slowdown")
		})
	}
}

// --- Figures 10/11: deadlock detection time --------------------------------

func reportDetection(b *testing.B, rep *must.Report) {
	b.Helper()
	if !rep.Deadlock {
		b.Fatal("deadlock not detected")
	}
	t := rep.Timings
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(us(t.Total()), "detect_us")
	b.ReportMetric(us(t.Synchronization), "sync_us")
	b.ReportMetric(us(t.WFGGather), "gather_us")
	b.ReportMetric(us(t.GraphBuild), "build_us")
	b.ReportMetric(us(t.DeadlockCheck), "check_us")
	b.ReportMetric(us(t.OutputGeneration), "output_us")
	b.ReportMetric(float64(rep.Arcs), "arcs")
}

func BenchmarkFig10WildcardDetection(b *testing.B) {
	for _, procs := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			var last *must.Report
			for i := 0; i < b.N; i++ {
				last = must.Run(procs, workload.WildcardDeadlock(),
					must.Options{FanIn: 4, Timeout: 50 * time.Millisecond})
			}
			reportDetection(b, last)
		})
	}
}

func BenchmarkFig11LammpsDetection(b *testing.B) {
	prog := workload.SpecApps("126.lammps").Build(3, 0)
	for _, procs := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var last *must.Report
			for i := 0; i < b.N; i++ {
				last = must.Run(procs, prog,
					must.Options{FanIn: 4, Timeout: 50 * time.Millisecond, Rendezvous: true})
			}
			reportDetection(b, last)
		})
	}
}

// --- Figure 12: SPEC MPI2007 proxy slowdowns --------------------------------

func BenchmarkFig12Spec(b *testing.B) {
	const procs = 16
	cfg := workload.SpecConfig{Iters: 15, Grain: 30 * time.Microsecond}
	for _, app := range workload.SpecSuite() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			prog := app.Build(cfg.Iters, cfg.Grain)
			// 137.lu carries the buffered-send backlog cost in both runs —
			// it is a property of the MPI library, and the mechanism behind
			// the paper's reproducible "gain" for this application.
			bufCost := 0
			if app.Name == "137.lu" {
				bufCost = 300
			}
			ref := refTime(b, procs, prog, mpi.Options{BufferedSendCost: bufCost})
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				rep := must.Run(procs, prog, must.Options{
					FanIn: 4, Timeout: benchTimeout, BufferedSendCost: bufCost,
				})
				if rep.AppAborted {
					b.Fatalf("%s aborted", app.Name)
				}
				if app.Unsafe && !(rep.Deadlock && rep.PotentialOnly) {
					b.Fatalf("%s: potential deadlock not flagged", app.Name)
				}
				if !app.Unsafe && rep.Deadlock {
					b.Fatalf("%s: false positive", app.Name)
				}
				total += rep.Elapsed
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(ref), "slowdown")
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationFanIn isolates the fan-in effect on a fixed scale.
func BenchmarkAblationFanIn(b *testing.B) {
	const procs = 128
	prog := workload.Stress(stressIters)
	ref := refTime(b, procs, prog, mpi.Options{})
	for _, fanIn := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("fanin=%d", fanIn), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				rep := must.Run(procs, prog, must.Options{FanIn: fanIn, Timeout: benchTimeout})
				total += rep.Elapsed
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(ref), "slowdown")
		})
	}
}

// BenchmarkAblationLuSsend reproduces the paper's 137.lu explanation: large
// buffered-send backlogs cost MPI-internal handling time; replacing every
// 50th MPI_Send with MPI_Ssend throttles the backlog and speeds the app up
// (no tool attached — this is the wrapper experiment of Sec. 6).
func BenchmarkAblationLuSsend(b *testing.B) {
	const procs = 16
	prog := workload.SpecApps("137.lu").Build(40, 10*time.Microsecond)
	for _, ssendEvery := range []int{0, 50, 12} {
		b.Run(fmt.Sprintf("ssendEvery=%d", ssendEvery), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mpi.Run(procs, prog, mpi.Options{
					BufferedSendCost: 300,
					SsendEvery:       ssendEvery,
					HangTimeout:      60 * time.Second,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWindow measures the Sec. 4.2 trace-window high-water
// mark on the GAPgeofem proxy under the two mitigations: preferring
// wait-state messages over new application events (the paper's future-work
// option) and shrinking the application→tool event buffers, which throttles
// ingestion to the tool's advancement rate and truly bounds the window — at
// the cost of application slowdown.
func BenchmarkAblationWindow(b *testing.B) {
	const procs = 16
	prog := workload.SpecApps("128.GAPgeofem").Build(60, 0)
	cases := []struct {
		name     string
		prefer   bool
		eventBuf int
	}{
		{"default", false, 0},
		{"preferWaitState", true, 0},
		{"smallEventBuf", false, 16},
		{"smallEventBuf+prefer", true, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			maxWindow := 0
			for i := 0; i < b.N; i++ {
				rep := must.Run(procs, prog, must.Options{
					FanIn: 4, Timeout: benchTimeout,
					PreferWaitState: c.prefer, EventBuf: c.eventBuf,
				})
				if rep.Deadlock {
					b.Fatal("false positive")
				}
				if rep.WindowHighWater > maxWindow {
					maxWindow = rep.WindowHighWater
				}
			}
			b.ReportMetric(float64(maxWindow), "window_ops")
		})
	}
}

// BenchmarkAblationGraphSimplification measures the paper's Sec. 6 future
// work: compressing the wait-for graph output by wait-pattern classes. For
// the wildcard storm the full DOT is O(p²) bytes while the simplified one is
// constant-size ("all p processes wait for all other processes, OR").
func BenchmarkAblationGraphSimplification(b *testing.B) {
	for _, procs := range []int{64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var rep *must.Report
			for i := 0; i < b.N; i++ {
				rep = must.Run(procs, workload.WildcardDeadlock(),
					must.Options{FanIn: 4, Timeout: 50 * time.Millisecond})
			}
			if !rep.Deadlock || rep.SimplifiedDOT == "" {
				b.Fatal("missing simplified output")
			}
			dotBytes, err := rep.DOT.WriteTo(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(dotBytes), "dot_bytes")
			b.ReportMetric(float64(len(rep.SimplifiedDOT)), "simplified_bytes")
		})
	}
}

// BenchmarkAblationCentralizedScan quantifies the per-event rescan cost that
// makes the centralized architecture degrade: events processed per second by
// each tool mode on the same workload.
func BenchmarkAblationCentralizedScan(b *testing.B) {
	prog := workload.Stress(stressIters)
	for _, procs := range []int{32, 128} {
		for _, mode := range []must.Mode{must.Distributed, must.Centralized} {
			name := map[must.Mode]string{must.Distributed: "distributed", must.Centralized: "centralized"}[mode]
			b.Run(fmt.Sprintf("procs=%d/%s", procs, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep := must.Run(procs, prog, must.Options{Mode: mode, FanIn: 4, Timeout: benchTimeout})
					if rep.Deadlock {
						b.Fatal("unexpected deadlock")
					}
				}
			})
		}
	}
}
