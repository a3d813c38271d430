// Command figures regenerates the paper's evaluation (Section 6), one table
// per figure, in the column layout of the committed results_fig*.txt:
//
//	figures -fig 9  -procs 16,64,256,1024 -fanins 2,4,8   stress-test slowdown, distributed vs centralized
//	figures -fig 10 -procs 1024                           wildcard deadlock (p² arcs): detection time by phase
//	figures -fig 11 -procs 1024                           126.lammps send-send deadlock: detection time by phase
//	figures -fig 12 -procs 64                             SPEC MPI2007 proxy slowdowns and their average
//	figures -fig ablation                                 the design-choice studies of DESIGN.md
//	figures -list                                         the SPEC proxies
//
// One timing convention everywhere: the reference is the mean wall time of
// the program without the tool, its iteration count doubled until the total
// is at least 50 ms; the tool time is the mean Report.Elapsed over -reps
// runs; slowdown is tool/reference. Figures 10 and 11 report one detection
// per scale — run one scale per process at ≥ 1024 ranks, or earlier scales'
// garbage is collected inside later scales' timings. Every verdict a figure
// rests on is checked: a wrong one exits 1, bad flags exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

const (
	paperFanIn = 4   // figs 10–12 and the ablations: the fan-in of the paper's runs
	centralMax = 512 // the paper's centralized implementation scaled to 512 processes
	specGrain  = 40 * time.Microsecond
	// luBufferedCost is the buffered-send backlog cost of 137.lu (spin
	// iterations per outstanding buffered send). It is a property of the MPI
	// library, so reference and tool runs both carry it; it is the mechanism
	// behind the paper's reproducible "gain" for this application.
	luBufferedCost = 300
)

// The verdicts a figure can require of a run.
const (
	noDeadlock = "no deadlock"
	potential  = "potential deadlock" // flagged by the final detection; the run completed
	manifest   = "deadlock"           // the application blocked and was aborted
)

func verdict(rep *must.Report) string {
	switch {
	case rep.Deadlock && rep.PotentialOnly:
		return potential
	case rep.Deadlock:
		return manifest
	case rep.AppAborted:
		return fmt.Sprintf("aborted (%v)", rep.AbortCause)
	}
	return noDeadlock
}

type config struct {
	procs, fanIns []int
	iters, reps   int
	timeout       time.Duration
}

// reference is the mean wall time of prog without the tool, under the MPI
// library model o describes.
func reference(procs int, prog mpi.Program, o must.Options) (time.Duration, error) {
	mo := mpi.Options{HangTimeout: time.Minute, BufferedSendCost: o.BufferedSendCost, SsendEvery: o.SsendEvery}
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := mpi.Run(procs, prog, mo); err != nil {
				return 0, fmt.Errorf("reference run: %w", err)
			}
		}
		if total := time.Since(start); total >= 50*time.Millisecond || n >= 64 {
			return total / time.Duration(n), nil
		}
	}
}

// underTool is the mean Report.Elapsed of reps runs of prog under the tool,
// each of which must report the verdict want. It returns the last report.
func underTool(procs int, prog mpi.Program, o must.Options, reps int, want string) (time.Duration, *must.Report, error) {
	var total time.Duration
	var rep *must.Report
	for i := 0; i < reps; i++ {
		rep = must.Run(procs, prog, o)
		if rep.Err != nil {
			return 0, nil, rep.Err
		}
		if got := verdict(rep); got != want {
			return 0, nil, fmt.Errorf("procs=%d: tool reported %q, want %q", procs, got, want)
		}
		total += rep.Elapsed
	}
	return total / time.Duration(reps), rep, nil
}

func slowdown(tool, ref time.Duration) float64 { return float64(tool) / float64(ref) }
func ms(d time.Duration) float64               { return float64(d) / float64(time.Millisecond) }

// stressTable is Figure 9: slowdown of the stress test under the distributed
// tool at each fan-in and under the centralized one.
func stressTable(w io.Writer, c config, title string) error {
	fmt.Fprintf(w, "# %s (iters=%d, reps=%d)\n", title, c.iters, c.reps)
	fmt.Fprintf(w, "%8s %12s", "procs", "ref(ms)")
	var cols []must.Options
	for _, f := range c.fanIns {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("dist(fanin=%d)", f))
		cols = append(cols, must.Options{FanIn: f, Timeout: c.timeout})
	}
	fmt.Fprintf(w, " %14s\n", "centralized")
	cols = append(cols, must.Options{Mode: must.Centralized, Timeout: c.timeout})
	prog := workload.Stress(c.iters)
	for _, p := range c.procs {
		ref, err := reference(p, prog, must.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %12.1f", p, ms(ref))
		for _, o := range cols {
			if o.Mode == must.Centralized && p > centralMax {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			tool, _, err := underTool(p, prog, o, c.reps, noDeadlock)
			if err != nil {
				return fmt.Errorf("stress: %w", err)
			}
			fmt.Fprintf(w, " %14.1f", slowdown(tool, ref))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# columns dist(...)/centralized are slowdown ratios vs the reference run (mean tool time / mean reference time)")
	return nil
}

// lammpsPairs is Figure 11's program: the 126.lammps send-send exchange.
func lammpsPairs() mpi.Program { return workload.SpecApps("126.lammps").Build(3, 0) }

// detectTable prints one detection per scale. The tool renders its HTML page
// and full DOT graph only on request, so the detection's own output phase
// covers the summary and the class graph; the last column times rendering
// both artifacts after the detection, which the paper's output phase paid for.
// rendezvous (synchronous standard sends) makes a send-send deadlock manifest.
func detectTable(w io.Writer, c config, fig, name string, prog mpi.Program, rendezvous bool) error {
	fmt.Fprintf(w, "# Figure %s: deadlock detection time (%s case, fanin=%d)\n", fig, name, paperFanIn)
	fmt.Fprintf(w, "#%7s %10s %12s | %7s %7s %7s %7s %7s | %10s   (render: DOT + HTML to io.Discard, on request, after the detection)\n",
		"procs", "arcs", "total(ms)", "sync%", "gather%", "build%", "check%", "output%", "render(ms)")
	for _, p := range c.procs {
		o := must.Options{FanIn: paperFanIn, Timeout: c.timeout, Rendezvous: rendezvous}
		_, rep, err := underTool(p, prog, o, 1, manifest)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t := rep.Timings
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(max(t.Total(), 1)) }
		start := time.Now()
		for _, a := range []io.WriterTo{rep.DOT, rep.HTML} {
			if _, err := a.WriteTo(io.Discard); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%8d %10d %12.2f | %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %10.2f\n",
			p, rep.Arcs, ms(t.Total()), pct(t.Synchronization), pct(t.WFGGather), pct(t.GraphBuild),
			pct(t.DeadlockCheck), pct(t.OutputGeneration), ms(time.Since(start)))
	}
	return nil
}

// specRow measures one proxy, prints its row and returns its slowdown.
func specRow(w io.Writer, procs int, c config, app workload.SpecApp) (float64, error) {
	prog, o := app.Build(c.iters, specGrain), must.Options{FanIn: paperFanIn, Timeout: c.timeout}
	if app.Name == "137.lu" {
		o.BufferedSendCost = luBufferedCost
	}
	want, notes := noDeadlock, ""
	if app.Unsafe {
		want, notes = potential, "POTENTIAL send-send deadlock flagged (excluded from average)"
	}
	ref, err := reference(procs, prog, o)
	if err != nil {
		return 0, err
	}
	tool, rep, err := underTool(procs, prog, o, c.reps, want)
	if err != nil {
		return 0, err
	}
	if app.HeavyTrace {
		notes += fmt.Sprintf(" window-high-water=%d (excluded from average)", rep.WindowHighWater)
	}
	fmt.Fprintf(w, "%-15s %12.1f %12.1f %10.2f %s\n", app.Name, ms(ref), ms(tool), slowdown(tool, ref), notes)
	return slowdown(tool, ref), nil
}

func fig12(w io.Writer, c config) error {
	for _, p := range c.procs {
		fmt.Fprintf(w, "# Figure 12: SPEC MPI2007 proxy slowdowns (procs=%d fanin=%d iters=%d reps=%d)\n", p, paperFanIn, c.iters, c.reps)
		fmt.Fprintf(w, "%-15s %12s %12s %10s %s\n", "app", "ref(ms)", "tool(ms)", "slowdown", "notes")
		sum, counted := 0.0, 0
		for _, app := range workload.SpecSuite() {
			slow, err := specRow(w, p, c, app)
			if err != nil {
				return fmt.Errorf("%s: %w", app.Name, err)
			}
			if !app.Unsafe && !app.HeavyTrace {
				sum += slow
				counted++
			}
		}
		fmt.Fprintf(w, "# average slowdown (excl. 126.lammps, 128.GAPgeofem): %.2f  (paper: 1.34 at 2048p)\n", sum/float64(counted))
	}
	return nil
}

// ablation prints the design-choice studies DESIGN.md calls out, at the
// fixed small scales they were designed at.
func ablation(w io.Writer, c config) error {
	// Fan-in, and the per-event rescan that makes the centralized
	// architecture degrade: Figure 9's table with a wider fan-in range.
	sweep := config{procs: []int{32, 128}, fanIns: []int{2, 4, 8, 16}, iters: c.iters, reps: c.reps, timeout: c.timeout}
	if err := stressTable(w, sweep, "Ablation: fan-in and centralized scan"); err != nil {
		return err
	}

	// The paper's 137.lu explanation, no tool attached: large buffered-send
	// backlogs cost MPI-internal handling time; giving every n-th MPI_Send
	// Ssend semantics throttles the backlog and speeds the application up.
	fmt.Fprintf(w, "# Ablation: 137.lu Ssend throttling (no tool, procs=16, buffered-send cost %d)\n%-22s %12s\n", luBufferedCost, "ssend-every", "ref(ms)")
	lu := workload.SpecApps("137.lu").Build(40, 10*time.Microsecond)
	for _, n := range []int{0, 50, 12} {
		ref, err := reference(16, lu, must.Options{BufferedSendCost: luBufferedCost, SsendEvery: n})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22d %12.1f\n", n, ms(ref))
	}

	// Sec. 4.2 trace window on the GAPgeofem proxy: small application→tool
	// buffers bound the window at the cost of application slowdown.
	fmt.Fprintf(w, "# Ablation: trace window (128.GAPgeofem, procs=16, reps=%d)\n%-22s %12s %10s %12s\n", c.reps, "mitigation", "tool(ms)", "slowdown", "window(ops)")
	geofem := workload.SpecApps("128.GAPgeofem").Build(60, 0)
	ref, err := reference(16, geofem, must.Options{})
	if err != nil {
		return err
	}
	for _, buf := range []int{0, 16} {
		label := fmt.Sprintf("buf=%d", buf)
		o := must.Options{FanIn: paperFanIn, Timeout: c.timeout, EventBuf: buf}
		tool, rep, err := underTool(16, geofem, o, c.reps, noDeadlock)
		if err != nil {
			return fmt.Errorf("trace window %s: %w", label, err)
		}
		fmt.Fprintf(w, "%-22s %12.1f %10.2f %12d\n", label, ms(tool), slowdown(tool, ref), rep.WindowHighWater)
	}

	// Sec. 6 future work: the wait-for graph compressed by wait-pattern
	// class is constant-size where the full DOT is O(p²) bytes.
	fmt.Fprintf(w, "# Ablation: graph simplification (wildcard deadlock)\n%-22s %12s %18s\n", "procs", "dot(bytes)", "simplified(bytes)")
	for _, p := range []int{64, 256} {
		_, rep, err := underTool(p, workload.WildcardDeadlock(), must.Options{FanIn: paperFanIn, Timeout: c.timeout}, 1, manifest)
		if err != nil {
			return err
		}
		n, err := rep.DOT.WriteTo(io.Discard)
		if err != nil || rep.SimplifiedDOT == "" {
			return fmt.Errorf("procs=%d: missing simplified output (%v)", p, err)
		}
		fmt.Fprintf(w, "%-22d %12d %18d\n", p, n, len(rep.SimplifiedDOT))
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad list %q: want comma-separated positive integers", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "", "figure to regenerate: 9|10|11|12|ablation")
		list    = fs.Bool("list", false, "list the SPEC MPI2007 proxies and exit")
		procs   = fs.String("procs", "16,64,256", "comma-separated process counts (figs 9-12; the ablations run at fixed scales)")
		fanIns  = fs.String("fanins", "2,4,8", "comma-separated TBON fan-ins of fig 9 (everything else uses the paper's 4)")
		iters   = fs.Int("iters", 40, "iterations of the stress test and of each SPEC proxy")
		reps    = fs.Int("reps", 3, "tool runs averaged per slowdown")
		timeout = fs.Duration("timeout", 200*time.Millisecond, "detection quiescence timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range workload.SpecSuite() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Signature)
		}
		return 0
	}
	c := config{iters: *iters, reps: *reps, timeout: *timeout}
	table := map[string]func() error{
		"9":        func() error { return stressTable(stdout, c, "Figure 9: stress-test slowdown") },
		"10":       func() error { return detectTable(stdout, c, "10", "wildcard", workload.WildcardDeadlock(), false) },
		"11":       func() error { return detectTable(stdout, c, "11", "lammps", lammpsPairs(), true) },
		"12":       func() error { return fig12(stdout, c) },
		"ablation": func() error { return ablation(stdout, c) },
	}[*fig]
	var err error
	if c.procs, err = parseInts(*procs); err == nil {
		c.fanIns, err = parseInts(*fanIns)
	}
	switch {
	case err == nil && table == nil:
		err = fmt.Errorf("unknown -fig %q (want 9|10|11|12|ablation, or -list)", *fig)
	case err == nil && (c.iters < 1 || c.reps < 1):
		err = fmt.Errorf("-iters %d, -reps %d: both must be at least 1", c.iters, c.reps)
	}
	code := 2 // bad flags
	if err == nil {
		err, code = table(), 1 // a failed run or a wrong verdict
	}
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return code
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
