package dwst_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The command smoke tests exercise every executable end to end through
// `go run`. They are integration tests for the CLIs, not for the tool
// internals (those have their own suites); skipped with -short.

func goRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out), code
}

func TestCmdMustrunDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	out, code := goRun(t, "./cmd/mustrun", "-workload", "recvrecv", "-procs", "4")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"DEADLOCK", "deadlocked ranks: [0 1 2 3]", "cycle:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdMustrunCleanAndArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	dir := t.TempDir()
	html := filepath.Join(dir, "r.html")
	dot := filepath.Join(dir, "g.dot")
	out, code := goRun(t, "./cmd/mustrun", "-workload", "wildcard", "-procs", "8",
		"-html", html, "-dot", dot)
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "all 8 processes wait for all other processes (OR)") {
		t.Fatalf("summary missing:\n%s", out)
	}
	for _, f := range []string{html, dot} {
		b, err := os.ReadFile(f)
		if err != nil || len(b) == 0 {
			t.Fatalf("artifact %s: err=%v len=%d", f, err, len(b))
		}
	}
	out, code = goRun(t, "./cmd/mustrun", "-workload", "stress", "-procs", "8", "-iters", "10")
	if code != 0 || !strings.Contains(out, "no deadlock") {
		t.Fatalf("clean run: exit=%d\n%s", code, out)
	}
}

func TestCmdMustrunFaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	// Message loss healed by retransmission: same verdict as fault-free.
	out, code := goRun(t, "./cmd/mustrun", "-workload", "wildcard", "-procs", "8",
		"-fault-drop", "0.02", "-fault-dup", "0.02", "-fault-seed", "7")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"DEADLOCK", "fault-plane: seed=7", "deadlocked ranks: [0 1 2 3 4 5 6 7]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// First-layer crash with the default -recover: the node is rebuilt by
	// journal replay and the report is NOT partial.
	out, code = goRun(t, "./cmd/mustrun", "-workload", "recvrecv", "-procs", "8",
		"-fanin", "2", "-fault-crash-node", "1", "-fault-crash-at", "2")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"DEADLOCK", "recovery: 1 first-layer node(s) rebuilt exactly",
		"deadlocked ranks: [0 1 2 3 4 5 6 7]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PARTIAL REPORT") {
		t.Fatalf("recovered run still flagged partial:\n%s", out)
	}
	// Same crash with -recover=false: degraded mode, report flagged partial.
	out, code = goRun(t, "./cmd/mustrun", "-workload", "recvrecv", "-procs", "8",
		"-fanin", "2", "-fault-crash-node", "1", "-fault-crash-at", "2",
		"-recover=false")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"DEADLOCK", "PARTIAL REPORT", "ranks [2 3]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// A crash of a node the tree does not have is refused, not ignored:
	// 8 ranks at fan-in 2 have first-layer nodes 0..3.
	out, code = goRun(t, "./cmd/mustrun", "-workload", "recvrecv", "-procs", "8",
		"-fanin", "2", "-fault-crash-node", "4")
	if code == 0 || !strings.Contains(out, "exit status 2") || !strings.Contains(out, "run failed") {
		t.Fatalf("-fault-crash-node 4 not rejected with exit 2 (code %d):\n%s", code, out)
	}
	// Malformed fault flags must be rejected at startup (exit 2; `go run`
	// reports the child's code as "exit status 2" text and exits 1 itself).
	out, code = goRun(t, "./cmd/mustrun", "-workload", "recvrecv", "-fault-drop", "1.5")
	if code == 0 || !strings.Contains(out, "exit status 2") ||
		!strings.Contains(out, "bad fault.drop") {
		t.Fatalf("bad -fault-drop not rejected with exit 2 (code %d):\n%s", code, out)
	}
	// Retired knobs are refused, not ignored: the -batch, -engine and
	// -prefer-waitstate flags are gone and a negative -mem-budget no longer
	// means "unbounded".
	for _, args := range [][]string{{"-batch=false"}, {"-engine", "cmh"}, {"-prefer-waitstate"}, {"-mem-budget", "-1"}} {
		out, code = goRun(t, append([]string{"./cmd/mustrun", "-workload", "recvrecv"}, args...)...)
		if code == 0 || !strings.Contains(out, "exit status 2") {
			t.Fatalf("%v not rejected with exit 2 (code %d):\n%s", args, code, out)
		}
	}
}

func TestCmdMustrunRankFaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	// A crashed rank must yield a deadlock-by-failure verdict naming it,
	// and -stats-json must serialize the machine-readable outcome.
	stats := filepath.Join(t.TempDir(), "stats.json")
	out, code := goRun(t, "./cmd/mustrun", "-workload", "clean", "-procs", "4", "-iters", "5",
		"-rank-crash", "2:3", "-stats-json", stats)
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"DEADLOCK BY FAILURE", "2 (after 2 calls)", "transitively blocked"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(stats)
	if err != nil {
		t.Fatalf("stats file: %v", err)
	}
	var st struct {
		Verdict       string `json:"verdict"`
		DeadRanks     []int  `json:"dead_ranks"`
		WatchdogFires int    `json:"watchdog_fires"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("stats json: %v\n%s", err, b)
	}
	if st.Verdict != "deadlock-by-failure" || len(st.DeadRanks) != 1 || st.DeadRanks[0] != 2 {
		t.Fatalf("stats = %+v\n%s", st, b)
	}

	// A stalled rank past the watchdog quiet period exits 3 with a
	// STALLED verdict (go run reports the code as "exit status 3" and
	// itself exits 1).
	out, code = goRun(t, "./cmd/mustrun", "-workload", "clean", "-procs", "4", "-iters", "5",
		"-rank-stall", "1:3:0", "-watchdog-quiet", "100ms")
	if code == 0 || !strings.Contains(out, "exit status 3") {
		t.Fatalf("stall exit = %d, want nonzero with status 3\n%s", code, out)
	}
	if !strings.Contains(out, "STALLED") || !strings.Contains(out, "[1]") {
		t.Fatalf("stall output:\n%s", out)
	}
}

// goRunStdout is goRun with the streams kept apart: stdout only, so tests
// can assert the machine-readable layout of `-stats-json -` without go
// run's own stderr chatter interleaved.
func goRunStdout(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.Output()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out), code
}

func TestCmdMustrunStatsJSONStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	// `-stats-json -` contract: stdout ends with exactly one JSON object,
	// newline-terminated, after the human-readable report — so shell
	// pipelines can `tail` it off without guessing at offsets.
	out, code := goRunStdout(t, "./cmd/mustrun", "-workload", "recvrecv", "-procs", "4",
		"-mode", "centralized", "-stats-json", "-")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.HasSuffix(out, "}\n") {
		t.Fatalf("stdout does not end with newline-terminated JSON:\n%q", out[max(0, len(out)-80):])
	}
	i := strings.LastIndex(out, "\n{")
	if i < 0 {
		t.Fatalf("no trailing JSON object on stdout:\n%s", out)
	}
	var st struct {
		Workload string `json:"workload"`
		Procs    int    `json:"procs"`
		Mode     string `json:"mode"`
		Verdict  string `json:"verdict"`
		Deadlock bool   `json:"deadlock"`
	}
	if err := json.Unmarshal([]byte(out[i+1:]), &st); err != nil {
		t.Fatalf("trailing JSON does not parse: %v\n%s", err, out[i+1:])
	}
	if st.Workload != "recvrecv" || st.Procs != 4 || st.Mode != "centralized" || st.Verdict != "deadlock" || !st.Deadlock {
		t.Fatalf("stats = %+v", st)
	}
}

// buildNetBins compiles mustrun and mustnode once into a temp dir, so the
// TCP smoke tests exercise the real multi-process deployment (coordinator
// spawning separate worker executables) rather than go run's wrapper.
func buildNetBins(t *testing.T) (mustrun, mustnode string) {
	t.Helper()
	dir := t.TempDir()
	mustrun = filepath.Join(dir, "mustrun")
	mustnode = filepath.Join(dir, "mustnode")
	for bin, pkg := range map[string]string{mustrun: "./cmd/mustrun", mustnode: "./cmd/mustnode"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return mustrun, mustnode
}

func runBin(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out), code
}

func TestCmdMustrunTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	mustrun, mustnode := buildNetBins(t)

	// Transport equivalence on real OS processes: the fig9/fig10-style
	// workloads must produce the exact verdict line of their chan runs.
	for _, c := range []struct {
		workload string
		procs    string
		want     string
	}{
		{"recvrecv", "8", "deadlocked ranks: [0 1 2 3 4 5 6 7]"},
		{"fig2b", "3", "deadlocked ranks: [0 1 2]"},
	} {
		chanOut, chanCode := runBin(t, mustrun, "-workload", c.workload, "-procs", c.procs, "-fanin", "2")
		tcpOut, tcpCode := runBin(t, mustrun, "-workload", c.workload, "-procs", c.procs, "-fanin", "2",
			"-transport", "tcp", "-workers", "2", "-mustnode-bin", mustnode)
		if tcpCode != chanCode {
			t.Fatalf("%s: tcp exit %d != chan exit %d\ntcp:\n%s\nchan:\n%s",
				c.workload, tcpCode, chanCode, tcpOut, chanOut)
		}
		for _, want := range []string{c.want, "transport=tcp"} {
			if !strings.Contains(tcpOut, want) {
				t.Fatalf("%s over tcp missing %q:\n%s", c.workload, want, tcpOut)
			}
		}
		if strings.Contains(tcpOut, "PARTIAL REPORT") {
			t.Fatalf("fault-free tcp run degraded:\n%s", tcpOut)
		}
	}

	// Seeded wire faults: the proxy drops and duplicates real frames; the
	// reliable layer must still deliver the exact verdict.
	out, code := runBin(t, mustrun, "-workload", "fig2b", "-procs", "3", "-fanin", "2",
		"-transport", "tcp", "-workers", "2", "-mustnode-bin", mustnode,
		"-wire-drop", "0.05", "-wire-dup", "0.05", "-wire-seed", "7")
	if code != 1 {
		t.Fatalf("wire-fault run exit = %d\n%s", code, out)
	}
	for _, want := range []string{"deadlocked ranks: [0 1 2]", "wire-faults: seed=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wire-fault run missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PARTIAL REPORT") {
		t.Fatalf("wire faults alone degraded the report:\n%s", out)
	}

	// Kill a worker process mid-run with the supervisor disabled: past the
	// budget its leaves are spliced out and the report honestly flags
	// their ranks unknown.
	out, code = runBin(t, mustrun, "-workload", "recvrecv", "-procs", "8", "-fanin", "4",
		"-transport", "tcp", "-workers", "2", "-mustnode-bin", mustnode,
		"-degrade-budget", "250ms", "-kill-worker", "1", "-kill-after", "30ms",
		"-respawn-max", "0")
	if code != 1 {
		t.Fatalf("kill-worker run exit = %d\n%s", code, out)
	}
	for _, want := range []string{"PARTIAL REPORT", "ranks [4 5 6 7]", "DEADLOCK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kill-worker run missing %q:\n%s", want, out)
		}
	}

	// Same kill with the supervisor on (the default): the worker process is
	// respawned under a recovery token, replays the shipped journal, and
	// the run converges to the full fault-free verdict — no PARTIAL.
	out, code = runBin(t, mustrun, "-workload", "recvrecv", "-procs", "8", "-fanin", "4",
		"-transport", "tcp", "-workers", "2", "-mustnode-bin", mustnode,
		"-kill-worker", "1", "-kill-after", "30ms")
	if code != 1 {
		t.Fatalf("kill-respawn run exit = %d\n%s", code, out)
	}
	for _, want := range []string{"respawn: 1 worker(s) re-admitted exactly",
		"deadlocked ranks: [0 1 2 3 4 5 6 7]", "DEADLOCK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kill-respawn run missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PARTIAL REPORT") {
		t.Fatalf("supervised respawn still degraded the report:\n%s", out)
	}

	// Inconsistent transport flags are rejected at startup (exit 2).
	out, code = runBin(t, mustrun, "-workload", "recvrecv", "-procs", "8", "-wire-drop", "0.1")
	if code != 2 || !strings.Contains(out, "requires -transport=tcp") {
		t.Fatalf("chan + -wire-drop not rejected with exit 2 (code %d):\n%s", code, out)
	}
	out, code = runBin(t, mustrun, "-workload", "recvrecv", "-procs", "8",
		"-transport", "tcp", "-fanin", "2", "-workers", "2", "-fault-drop", "0.1")
	if code != 2 || !strings.Contains(out, "require the channel transport") {
		t.Fatalf("tcp + -fault-drop not rejected with exit 2 (code %d):\n%s", code, out)
	}
	// Combinations the run cannot honour are refused by the run itself
	// (must.Options.Validate, tbon.NewNet) before any worker is spawned:
	// still exit 2, as "run failed: <reason>".
	for _, c := range []struct {
		name string
		args []string
	}{
		{"tcp needs distributed mode", []string{"-mode", "centralized"}},
		{"tcp rejects rank fault plans", []string{"-rank-crash", "1"}},
		{"tcp rejects link delay", []string{"-link-delay", "1ms"}},
		{"single first-layer node", []string{"-fanin", "8"}}, // procs 8 at fan-in 8
		{"zero workers", []string{"-workers", "0"}},
		{"more workers than leaves", []string{"-workers", "5"}}, // fan-in 2: four first-layer nodes
	} {
		t.Run(c.name, func(t *testing.T) {
			out, code := runBin(t, mustrun, append([]string{"-workload", "recvrecv", "-procs", "8",
				"-transport", "tcp", "-fanin", "2", "-mustnode-bin", mustnode}, c.args...)...)
			if code != 2 || !strings.Contains(out, "run failed") {
				t.Fatalf("tcp with %v not refused with exit 2 (code %d):\n%s", c.args, code, out)
			}
		})
	}
}

func TestCmdMustrunTCPStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	mustrun, mustnode := buildNetBins(t)
	stats := filepath.Join(t.TempDir(), "stats.json")
	out, code := runBin(t, mustrun, "-workload", "fig2b", "-procs", "3", "-fanin", "2",
		"-transport", "tcp", "-workers", "2", "-mustnode-bin", mustnode,
		"-stats-json", stats)
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	b, err := os.ReadFile(stats)
	if err != nil {
		t.Fatalf("stats file: %v", err)
	}
	var st struct {
		Transport   string `json:"transport"`
		Deadlock    bool   `json:"deadlock"`
		BytesOnWire uint64 `json:"bytes_on_wire"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("stats json: %v\n%s", err, b)
	}
	if st.Transport != "tcp" || !st.Deadlock || st.BytesOnWire == 0 {
		t.Fatalf("stats = %+v\n%s", st, b)
	}
}

func TestCmdMustreplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	// Reference: the live tool's verdict on the same workload.
	liveOut, liveCode := goRun(t, "./cmd/mustrun", "-workload", "fig2b", "-procs", "3")
	if liveCode != 1 {
		t.Fatalf("live run: exit=%d\n%s", liveCode, liveOut)
	}
	liveRanks := extractRanks(t, liveOut, "deadlocked ranks: [")

	trace := filepath.Join(t.TempDir(), "t.jsonl")
	out, code := goRun(t, "./cmd/mustreplay", "-record", trace, "-workload", "fig2b", "-procs", "3")
	if code != 0 {
		t.Fatalf("record: exit=%d\n%s", code, out)
	}
	out, code = goRun(t, "./cmd/mustreplay", "-analyze", trace)
	if code != 1 || !strings.Contains(out, "DEADLOCK") {
		t.Fatalf("analyze: exit=%d\n%s", code, out)
	}
	// The offline replay must reach the live verdict: a deadlock of the
	// exact same rank set.
	replayRanks := extractRanks(t, out, "DEADLOCK: ranks [")
	if replayRanks != liveRanks {
		t.Fatalf("replay verdict diverged from live run: replay deadlocked [%s], live [%s]",
			replayRanks, liveRanks)
	}
}

// extractRanks returns the space-separated rank list following marker (up
// to the closing bracket), e.g. "0 1 2".
func extractRanks(t *testing.T, out, marker string) string {
	t.Helper()
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("missing %q in:\n%s", marker, out)
	}
	rest := out[i+len(marker):]
	j := strings.IndexByte(rest, ']')
	if j < 0 {
		t.Fatalf("unterminated rank list after %q in:\n%s", marker, out)
	}
	return rest[:j]
}

// The figures' verdicts and layouts are pinned in-process by
// cmd/figures/main_test.go; this is the executable's own smoke test.
func TestCmdFiguresRow(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke tests skipped in -short")
	}
	out, code := goRun(t, "./cmd/figures", "-fig", "9", "-procs", "8", "-fanins", "2", "-iters", "10", "-reps", "1")
	if code != 0 || !strings.Contains(out, "Figure 9") || !strings.Contains(out, "dist(fanin=2)") {
		t.Fatalf("exit=%d\n%s", code, out)
	}
	out, code = goRun(t, "./cmd/figures", "-list")
	if code != 0 || !strings.Contains(out, "126.lammps") || !strings.Contains(out, "137.lu") {
		t.Fatalf("exit=%d\n%s", code, out)
	}
}
