package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"dwst/internal/workload"
)

// The figure tests call the table builders in-process at p=8: what they pin
// is the verdicts the figures rest on and the table layout, not the timings.

func small() config {
	return config{procs: []int{8}, fanIns: []int{2, 4}, iters: 10, reps: 1, timeout: 20 * time.Millisecond}
}

// rows returns the whitespace-separated fields of every data row of a table.
func rows(out string) [][]string {
	var rs [][]string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, "#") {
			rs = append(rs, f)
		}
	}
	return rs
}

func TestFig9RowsNeverDeadlock(t *testing.T) {
	var out bytes.Buffer
	// A deadlock report on any cell is an error, so a nil error is the claim.
	if err := stressTable(&out, small(), "Figure 9: stress-test slowdown"); err != nil {
		t.Fatalf("fig 9: %v\n%s", err, &out)
	}
	rs := rows(out.String())
	if len(rs) != 2 || strings.Join(rs[0], " ") != "procs ref(ms) dist(fanin=2) dist(fanin=4) centralized" {
		t.Fatalf("layout:\n%s", &out)
	}
	for _, cell := range rs[1][1:] {
		if v, err := strconv.ParseFloat(cell, 64); err != nil || v <= 0 {
			t.Fatalf("cell %q is not a positive number:\n%s", cell, &out)
		}
	}
}

func TestFig10ReportsAllArcsAndPhases(t *testing.T) {
	var out bytes.Buffer
	if err := detectTable(&out, small(), "10", "wildcard", workload.WildcardDeadlock(), false); err != nil {
		t.Fatalf("fig 10: %v", err)
	}
	rs := rows(out.String())
	if len(rs) != 1 || rs[0][0] != "8" || rs[0][1] != "56" { // p·(p−1) arcs
		t.Fatalf("want one row of 8 procs and 56 arcs:\n%s", &out)
	}
	if total, err := strconv.ParseFloat(rs[0][2], 64); err != nil || total <= 0 {
		t.Fatalf("phase total %q is not positive:\n%s", rs[0][2], &out)
	}
}

func TestFig11NeedsRendezvousToManifest(t *testing.T) {
	var out bytes.Buffer
	if err := detectTable(&out, small(), "11", "lammps", lammpsPairs(), true); err != nil {
		t.Fatalf("fig 11: %v", err)
	}
	if rs := rows(out.String()); len(rs) != 1 || rs[0][1] != "8" { // one arc per rank
		t.Fatalf("want one row with 8 arcs:\n%s", &out)
	}
	// With buffered standard sends the exchange completes; the tool still
	// flags it, but only as potential, which is not what Figure 11 times.
	err := detectTable(&out, small(), "11", "lammps", lammpsPairs(), false)
	if err == nil || !strings.Contains(err.Error(), potential) {
		t.Fatalf("without rendezvous: err = %v, want a %q verdict refused", err, potential)
	}
}

func TestFig12FlagsLammpsAndAveragesTheRest(t *testing.T) {
	var out bytes.Buffer
	if err := fig12(&out, small()); err != nil {
		t.Fatalf("fig 12: %v\n%s", err, &out)
	}
	sum, n := 0.0, 0
	for _, r := range rows(out.String())[1:] {
		line := strings.Join(r, " ")
		slow, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		switch r[0] {
		case "126.lammps":
			if !strings.Contains(line, "POTENTIAL send-send deadlock flagged") {
				t.Fatalf("lammps not flagged: %q", line)
			}
		case "128.GAPgeofem":
			if !strings.Contains(line, "window-high-water=") {
				t.Fatalf("GAPgeofem without its window: %q", line)
			}
		default:
			sum += slow
			n++
		}
	}
	if n != len(workload.SpecSuite())-2 {
		t.Fatalf("averaged %d proxies, want all but two:\n%s", n, &out)
	}
	// The footer must be the mean of exactly the other thirteen (rows are
	// printed to two decimals, so allow their rounding).
	var avg float64
	footer := out.String()[strings.LastIndex(out.String(), "# average"):]
	if _, err := fmt.Sscanf(footer, "# average slowdown (excl. 126.lammps, 128.GAPgeofem): %f", &avg); err != nil {
		t.Fatalf("footer %q: %v", footer, err)
	}
	if math.Abs(avg-sum/float64(n)) > 0.011 {
		t.Fatalf("footer average %.2f, rows without lammps and GAPgeofem average %.4f", avg, sum/float64(n))
	}
}

func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // on stdout for code 0, on stderr otherwise
	}{
		{[]string{"-list"}, 0, "126.lammps"},
		{[]string{"-fig", "10", "-procs", "8", "-timeout", "20ms"}, 0, "Figure 10"},
		// One rank has no partner to deadlock with: a wrong verdict for
		// Figure 11 must fail the run, not print a row.
		{[]string{"-fig", "11", "-procs", "1", "-timeout", "20ms"}, 1, `want "deadlock"`},
		{[]string{"-fig", "13"}, 2, "unknown -fig"},
		{[]string{"-fig", "9", "-procs", "8,x"}, 2, "bad list"},
		{[]string{"-fig", "9", "-reps", "0"}, 2, "at least 1"},
		{[]string{"-case", "wildcard"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		got := stderr.String()
		if c.code == 0 {
			got = stdout.String()
		}
		if code != c.code || !strings.Contains(got, c.want) {
			t.Errorf("%v: exit %d, want %d with %q\nstdout: %s\nstderr: %s", c.args, code, c.code, c.want, &stdout, &stderr)
		}
	}
}
