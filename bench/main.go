// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the deadlock-detection tool sees, and a
// traced pass that replays each workload's captured event stream through
// every module to say where the time goes. See README.md.
//
//	bash bench/run.sh                                   # the listed workloads, untraced
//	bash bench/run.sh -workload stress_ring             # one workload
//	bash bench/run.sh -trace 1 -trace-out spans.ndjson  # traced pass
//	bash bench/run.sh -selfcheck                        # two sets, compared to the bounds
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed      = flag.Int64("seed", 1, "seed of every random choice (serve_mix spec order, tracegen snapshots)")
		seconds   = flag.Float64("seconds", 0, "how long one workload measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: traced pass (spans, per-layer metrics, attribution); 0: end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the recorded spans here as NDJSON")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of the untraced suite and fail if any metric's two medians differ by more than its bound")
		mustserve = flag.String("mustserve", "", "mustserve binary for serve_mix (default <repo>/.bench_build/mustserve)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *mustserve == "" {
		*mustserve = filepath.Join(root, ".bench_build", "mustserve")
	}
	if *seconds <= 0 {
		bf, err := readBenchmarkFile(root)
		if err != nil {
			fatal(err)
		}
		*seconds = float64(bf.RunSeconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, mustserve: *mustserve}

	switch {
	case *selfcheck:
		if err := selfCheck(root, cfg, os.Stdout); err != nil {
			fatal(err)
		}
	case *workload == "":
		results, err := runSuite(cfg, *traceOut, os.Stdout)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			if r.Failed > 0 {
				fatal(fmt.Errorf("%s: %d of %d units failed their verdict check", r.Workload, r.Failed, r.Attempted))
			}
		}
	default:
		ok, err := runOne(*workload, cfg, *traceOut, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// repoRoot finds the checkout this binary measures: the nearest directory
// at or above the working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// runWorkload measures one workload in this process.
func runWorkload(name string, cfg runConfig) (*result, error) {
	wd := findWorkload(name)
	if wd == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	var res *result
	var err error
	if wd.build == nil {
		res, err = runServeMix(wd, cfg)
	} else {
		res, err = runInproc(wd, cfg)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: nothing was measured", name)
	}
	if cfg.trace {
		// A workload without a layer reports 0 for it: the machine-readable
		// result always carries the whole list.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = measured{}
			}
		}
	}
	return res, nil
}

// contractLine is the machine-readable last line of a -workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix starts the line that carries the full result (quartiles,
// sample counts, input hash, attribution) for the suite's parent process.
const detailPrefix = "detail: "

// runOne measures one workload and prints the tables, the detail line and
// the contract line. It reports whether every verdict check passed.
func runOne(name string, cfg runConfig, traceOut string, w io.Writer) (bool, error) {
	if cfg.trace {
		cfg.rec = newRecorder(name)
	}
	res, err := runWorkload(name, cfg)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		res.printTable(w, "end-to-end (traced pass, shorter)", endToEnd)
		res.printTable(w, "per-layer", perLayer)
		res.printAttribution(w)
		printSelfTimes(w, cfg.rec)
	} else {
		res.printTable(w, "end-to-end", append(append([]metricDef{}, endToEnd...), workloadE2E...))
	}
	res.printFailures(w)
	if traceOut != "" {
		if err := writeSpans(traceOut, cfg.rec); err != nil {
			return false, err
		}
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)

	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return false, fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		line.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", out)
	return line.Correct, nil
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := rec.writeNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSuite runs every workload in a child process of its own — so peak RSS
// is the workload's and no two workloads share a heap — echoes each child's
// tables, and returns the parsed results.
func runSuite(cfg runConfig, traceOut string, w io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, nil, 0o644); err != nil {
			return nil, err
		}
	}
	var results []*result
	for _, wd := range workloads {
		if wd.tracedOnly && !cfg.trace {
			continue
		}
		args := []string{
			"-workload", wd.name,
			"-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds),
			"-mustserve", cfg.mustserve,
		}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		res, err := parseChild(out, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w (child: %v)", wd.name, err, runErr)
		}
		results = append(results, res)
	}
	return results, nil
}

// parseChild echoes a child's human-readable lines and decodes its detail
// line.
func parseChild(out []byte, w io.Writer) (*result, error) {
	var res *result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			res = new(result)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), res); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "{"):
			// the contract line: the detail line already said it all
		default:
			fmt.Fprintln(w, line)
		}
	}
	if res == nil {
		return nil, errors.New("child printed no result")
	}
	return res, nil
}
