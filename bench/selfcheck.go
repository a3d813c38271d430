package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json: the contract a driver checks this
// benchmark against, and where the regression bounds live.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// drift is one metric's movement between two sets of runs.
type drift struct {
	workload string
	metric   boundedMetric
	a, b     float64
}

func (d drift) moved() float64 { return movedBy(d.a, d.b) }
func (d drift) ok() bool       { return d.moved() <= d.metric.Bound }

// compareSets pairs, per workload and end-to-end metric, the medians of the
// two sets' runs. a[k][i] is run k's result of workload i.
func compareSets(bounds []boundedMetric, a, b [][]*result) []drift {
	med := func(set [][]*result, i int, name string) float64 {
		vals := make([]float64, len(set))
		for k := range set {
			vals[k] = set[k][i].Metrics[name].Value
		}
		return median(vals)
	}
	var out []drift
	for i := range a[0] {
		for _, m := range bounds {
			out = append(out, drift{workload: a[0][i].Workload, metric: m, a: med(a, i, m.Name), b: med(b, i, m.Name)})
		}
	}
	return out
}

// selfcheckRuns is how many runs of the suite make one set. One is not
// enough: now and then a run on this box reads 10-15 % slow in every metric
// at once (a busy host), and a pair of single runs then fails a check that
// two medians pass.
const selfcheckRuns = 3

// selfCheck runs two sets of the untraced suite back to back and fails if any
// end-to-end metric's two medians differ by more than its bound, in either
// direction: a swing toward better is as much a sign of an unsteady metric
// as one toward worse. Run k of either set uses seed+k. It prints every
// movement, so bounds are set from data.
func selfCheck(root string, cfg runConfig, w io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	cfg.trace = false
	var sets [2][][]*result
	for i := range sets {
		for k := 0; k < selfcheckRuns; k++ {
			fmt.Fprintf(w, "== selfcheck set %d, run %d\n", i+1, k+1)
			run := cfg
			run.seed += int64(k)
			results, err := runSuite(run, "", w)
			if err != nil {
				return err
			}
			for _, r := range results {
				if r.Failed > 0 {
					return fmt.Errorf("selfcheck: %s: %d of %d units failed their verdict check", r.Workload, r.Failed, r.Attempted)
				}
			}
			sets[i] = append(sets[i], results)
		}
	}
	fmt.Fprintf(w, "== selfcheck: medians of %d runs, second set against first\n", selfcheckRuns)
	fmt.Fprintf(w, "  %-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "moved by", "bound")
	bad := 0
	for _, d := range compareSets(bf.EndToEnd, sets[0], sets[1]) {
		mark := ""
		if !d.ok() {
			mark = "  EXCEEDS BOUND"
			bad++
		}
		fmt.Fprintf(w, "  %-15s %-18s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", d.workload, d.metric.Name, d.a, d.b, 100*d.moved(), 100*d.metric.Bound, mark)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two sets of the same commit", bad)
	}
	fmt.Fprintln(w, "selfcheck passed")
	return nil
}
