package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"dwst/internal/session"
	"dwst/mpi"
)

// serveSpec is one of the four session kinds serve_mix cycles through.
type serveSpec struct {
	spec     session.Spec
	deadlock bool
	// measured at set-up:
	stream *stream
	ref    time.Duration // the program without the tool (median over set-up rounds)
	refCPU time.Duration // process CPU of that run
}

func (s *serveSpec) label() string {
	return fmt.Sprintf("%s/p%d", s.spec.Workload, s.spec.Procs)
}

func (s *serveSpec) wantVerdict() string {
	if s.deadlock {
		return "deadlock"
	}
	return "none"
}

// serveSpecs are small on purpose: what the service adds per session
// shows only when the session itself is cheap.
func serveSpecs(tiny bool) []*serveSpec {
	small, big := pick(tiny, 16, 4), pick(tiny, 64, 8)
	return []*serveSpec{
		// Tiny keeps the iterations: the server reports elapsed_ms in whole
		// milliseconds, and a session that rounds to 0 has no slowdown.
		{spec: session.Spec{Workload: "stress", Procs: small, Iters: pick(tiny, 50, 200)}},
		{spec: session.Spec{Workload: "wildcard", Procs: small}, deadlock: true},
		{spec: session.Spec{Workload: "spec:126.lammps", Procs: small, Rendezvous: true}, deadlock: true},
		{spec: session.Spec{Workload: "stress", Procs: big, Iters: pick(tiny, 100, 200)}},
	}
}

// serveMix is serve_mix after set-up.
type serveMix struct {
	specs []*serveSpec
	seed  int64
}

// sequence returns client c's endless spec sequence: cycles of all the
// specs, each cycle shuffled afresh from the seed. Fresh shuffles matter:
// with one fixed order, which two specs run side by side would be decided
// by the seed for the whole run, and the seed would move the medians.
func (m *serveMix) sequence(c int) func() int {
	rng := rand.New(rand.NewSource(m.seed*7919 + int64(c)))
	var cycle []int
	return func() int {
		if len(cycle) == 0 {
			cycle = rng.Perm(len(m.specs))
		}
		idx := cycle[0]
		cycle = cycle[1:]
		return idx
	}
}

// hashedClients and hashedPicks bound what inputSHA covers of the endless
// sequences: enough to tell two seeds apart, independent of the machine's
// processor count.
const hashedClients, hashedPicks = 8, 64

func (m *serveMix) inputSHA() string {
	h := sha256.New()
	for _, s := range m.specs {
		js, _ := json.Marshal(s.spec) // a Spec of plain fields cannot fail to marshal
		fmt.Fprintf(h, "%s;", js)
		s.stream.hashInto(h)
	}
	for c := 0; c < hashedClients; c++ {
		next := m.sequence(c)
		for i := 0; i < hashedPicks; i++ {
			fmt.Fprintf(h, "%d,", next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupServeMix builds the four programs, captures their event streams and
// times each once without the tool.
func setupServeMix(cfg runConfig) (*serveMix, error) {
	m := &serveMix{specs: serveSpecs(cfg.tiny), seed: cfg.seed}
	for _, s := range m.specs {
		prog, err := s.spec.Program()
		if err != nil {
			return nil, err
		}
		mo := mpi.Options{Rendezvous: s.spec.Rendezvous, HangTimeout: 60 * time.Second}
		if s.deadlock {
			mo.HangTimeout = toolTimeout
		}
		if s.stream, err = capture(s.spec.Procs, prog, mo); err != nil {
			return nil, fmt.Errorf("%s: %w", s.label(), err)
		}
		if s.stream.hung != s.deadlock {
			return nil, fmt.Errorf("%s: capture hung=%v, want %v", s.label(), s.stream.hung, s.deadlock)
		}
		// A clean spec's reference run takes a few milliseconds: five of
		// them, for a median that repeats. A deadlocking one takes the hang
		// watchdog's period every time.
		n := 5
		if s.deadlock {
			n = 1
		}
		var refs, cpus []float64
		for i := 0; i < n; i++ {
			cpu0 := cpuTime()
			t0 := time.Now()
			err = mpi.Run(s.spec.Procs, prog, mo)
			refs = append(refs, float64(time.Since(t0)))
			cpus = append(cpus, float64(cpuTime()-cpu0))
			if hung := errors.Is(err, mpi.ErrHang); hung != s.deadlock || (err != nil && !hung) {
				return nil, fmt.Errorf("%s: reference run: %v", s.label(), err)
			}
		}
		s.ref, s.refCPU = time.Duration(median(refs)), time.Duration(median(cpus))
	}
	return m, nil
}

// server is a running mustserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startServer launches the binary on an ephemeral port and returns once
// /healthz answers.
func startServer(bin string, pool int) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-pool", fmt.Sprint(pool), "-queue", "64")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w (bench/run.sh builds it)", bin, err)
	}
	// The bound address on the first stdout line is the binary's startup
	// contract.
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("mustserve printed no listen line: %w", err)
	}
	go io.Copy(io.Discard, out) // drain lines; ends when the process closes stdout
	fields := strings.Fields(line)
	addr := ""
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("cannot parse listen line %q", line)
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i > 200 {
			s.stop()
			return nil, fmt.Errorf("mustserve never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server (SIGTERM), waits for it to exit and returns its
// peak resident set size in MiB.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
		}
	}()
	s.cmd.Wait()
	close(done)
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// rejected reads the server's admission-rejection counter from /metrics.
func (s *server) rejected() float64 {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), "mustserve_sessions_rejected_total %g", &v); err == nil {
			return v
		}
	}
	return 0
}

// sessionRun is one closed-loop request: submit, then wait for the outcome.
type sessionRun struct {
	spec    int
	wall    time.Duration // submit → terminal outcome in hand
	elapsed time.Duration // the application under the tool, as the server reports it
	why     string        // non-empty: the session failed its check
	race    bool          // clean verdict, but the final snapshot reported lost messages: see result.quiescenceRace
}

// waitReply is the shape of GET /sessions/{id}/wait.
type waitReply struct {
	Terminal bool `json:"terminal"`
	Session  struct {
		ID      string            `json:"id"`
		State   session.State     `json:"state"`
		Error   string            `json:"error"`
		Verdict string            `json:"verdict"`
		Stats   *session.RunStats `json:"stats"`
	} `json:"session"`
}

// checkOutcome returns why a finished session is wrong, or "".
func checkOutcome(s *serveSpec, state session.State, errText string, st *session.RunStats) string {
	switch {
	case state != session.StateDone:
		return fmt.Sprintf("%s: state %s (%s)", s.label(), state, errText)
	case st == nil:
		return s.label() + ": no stats"
	case st.Verdict != s.wantVerdict():
		return fmt.Sprintf("%s: verdict %s, want %s", s.label(), st.Verdict, s.wantVerdict())
	case st.Partial || st.Overloaded:
		return s.label() + ": partial or overloaded report"
	case len(st.EngineDeviations) > 0 || st.DroppedResults > 0:
		return s.label() + ": engine deviations or dropped results"
	case s.deadlock && len(st.Deadlocked) != s.spec.Procs:
		return fmt.Sprintf("%s: %d deadlocked ranks, want %d", s.label(), len(st.Deadlocked), s.spec.Procs)
	}
	return ""
}

// httpSession submits one spec over HTTP and waits for its outcome.
func (m *serveMix) httpSession(c *http.Client, base string, idx, rep int, rec *recorder) sessionRun {
	s := m.specs[idx]
	run := sessionRun{spec: idx}
	body, _ := json.Marshal(s.spec)
	id := rec.begin("session/"+s.label(), -1, rep)
	defer rec.end(id)
	t0 := time.Now()

	post := rec.begin("http.post", id, rep)
	resp, err := c.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		run.why = fmt.Sprintf("%s: POST: %v", s.label(), err)
		return run
	}
	var view struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	rec.end(post)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		run.why = fmt.Sprintf("%s: POST answered %d (%v)", s.label(), resp.StatusCode, err)
		return run
	}

	wait := rec.begin("http.wait", id, rep)
	resp, err = c.Get(base + "/sessions/" + view.ID + "/wait?timeout=120s")
	if err != nil {
		run.why = fmt.Sprintf("%s: wait: %v", s.label(), err)
		return run
	}
	var reply waitReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	rec.end(wait)
	run.wall = time.Since(t0)
	switch {
	case resp.StatusCode != http.StatusOK || err != nil:
		run.why = fmt.Sprintf("%s: wait answered %d (%v)", s.label(), resp.StatusCode, err)
	case !reply.Terminal:
		run.why = s.label() + ": not terminal after 120s"
	default:
		run.why = checkOutcome(s, reply.Session.State, reply.Session.Error, reply.Session.Stats)
	}
	if st := reply.Session.Stats; st != nil {
		run.elapsed = time.Duration(st.ElapsedMS) * time.Millisecond
		run.race = !s.deadlock && st.LostMessages > 0
		if rec != nil {
			rec.synth("app", wait, rep, rec.start(wait), run.elapsed)
		}
	}
	return run
}

// closedLoop runs `clients` clients for d; each issues its next session only
// after the previous one ended, following its own seeded sequence, and runs
// every spec at least once. do runs one session.
func (m *serveMix) closedLoop(clients int, d time.Duration, do func(client, idx, rep int) sessionRun) ([]sessionRun, time.Duration) {
	var mu sync.Mutex
	var all []sessionRun
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := m.sequence(c)
			for i := 0; i < len(m.specs) || time.Now().Before(deadline); i++ {
				run := do(c, next(), i)
				mu.Lock()
				all = append(all, run)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// count folds session outcomes into the result and returns the good ones.
func (m *serveMix) count(res *result, runs []sessionRun) (good []sessionRun) {
	for _, r := range runs {
		res.Attempted++
		if r.why != "" {
			res.fail(r.why)
			continue
		}
		if r.race && !res.quiescenceRace(m.specs[r.spec].label()+": lost messages reported on a clean session") {
			continue
		}
		good = append(good, r)
	}
	return good
}

// allocPass runs the first sessions of the seeded sequence through
// session.Run in this process — the code a server worker runs, minus HTTP
// and the queue — to count allocations: the server binary exposes no
// allocation counters.
func (m *serveMix) allocPass(res *result, cycles int) {
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	var calls, runs int
	next := m.sequence(0)
	for i := 0; i < cycles*len(m.specs); i++ {
		s := m.specs[next()]
		spec := s.spec
		runtime.ReadMemStats(&before)
		out := session.Run(context.Background(), &spec)
		runtime.ReadMemStats(&after)
		res.Attempted++
		if why := checkOutcome(s, out.State, out.Error, out.Stats); why != "" {
			res.fail("in-process: " + why)
			continue
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		calls += s.stream.calls
		runs++
	}
	if runs > 0 {
		res.set("allocs_per_call", float64(mallocs)/float64(calls), nil)
		res.set("alloc_mb_per_run", float64(bytes)/mib/float64(runs), nil)
	}
}

// endToEndMetrics turns the HTTP sessions into the end-to-end metrics.
func (m *serveMix) endToEndMetrics(res *result, good []sessionRun, window time.Duration) {
	var calls float64
	var walls, tails, verdicts, ratios []float64
	n := len(m.specs)
	elapsedBy, tailBy, verdictBy := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	for _, r := range good {
		s := m.specs[r.spec]
		calls += float64(s.stream.calls)
		fired := time.Duration(0)
		if s.deadlock {
			fired = toolTimeout
		}
		walls = append(walls, ms(r.wall))
		tails = append(tails, ms(r.wall-r.elapsed))
		verdicts = append(verdicts, ms(r.wall-fired))
		ratios = append(ratios, float64(r.elapsed)/float64(s.ref))
		elapsedBy[r.spec] = append(elapsedBy[r.spec], float64(r.elapsed))
		tailBy[r.spec] = append(tailBy[r.spec], ms(r.wall-r.elapsed))
		verdictBy[r.spec] = append(verdictBy[r.spec], ms(r.wall-fired))
	}
	// The four specs have four different latencies, so a central value over
	// all sessions sits on the edge between two of them and jumps. Per-spec
	// central values, averaged, do not (spec_mix sums per-program ones for
	// the same reason). elapsed_ms comes in whole milliseconds: its mean over
	// a spec's sessions averages the rounding out.
	var slow, tail, verdict []float64
	for i := range m.specs {
		if len(elapsedBy[i]) == 0 {
			continue
		}
		slow = append(slow, sum(elapsedBy[i])/float64(len(elapsedBy[i]))/float64(m.specs[i].ref))
		tail = append(tail, center(tailBy[i]))
		verdict = append(verdict, center(verdictBy[i]))
	}
	res.set("calls_per_s", calls/window.Seconds(), nil)
	res.set("app_slowdown", geomean(slow), ratios)
	res.set("tool_tail_ms", sum(tail)/float64(len(tail)), tails)
	res.set("verdict_wall_ms", sum(verdict)/float64(len(verdict)), verdicts)

	res.set("sessions_per_s", float64(len(good))/window.Seconds(), nil)
	res.setMedian("verdict_p50_ms", walls)
	if highestPercentile(len(walls)) >= 95 {
		res.set("verdict_p95_ms", percentile(walls, 95), walls)
	}
}

// runServeMix is one run of the serve_mix workload.
func runServeMix(wd *workloadDef, cfg runConfig) (*result, error) {
	res := newResult(wd.name, cfg)
	clients := runtime.GOMAXPROCS(0)
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var m *serveMix
	var srv *server
	defer func() {
		if srv != nil { // an error path: never leave the server behind
			srv.stop()
		}
	}()
	var setups, startups []float64
	var refs [][]float64
	for i := 0; i < rounds; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		id := cfg.rec.begin("setup", -1, i)
		t0 := time.Now()
		mix, err := setupServeMix(cfg)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if srv, err = startServer(cfg.mustserve, clients); err != nil {
			return nil, err
		}
		cfg.rec.end(id)
		setups = append(setups, time.Since(t0).Seconds())
		startups = append(startups, ms(time.Since(t1)))
		if refs == nil {
			refs = make([][]float64, len(mix.specs))
		}
		for j, s := range mix.specs {
			refs[j] = append(refs[j], float64(s.ref))
		}
		m = mix
	}
	for j, s := range m.specs {
		s.ref = time.Duration(median(refs[j]))
	}
	res.setMedian("setup_s", setups)
	res.setMedian("mustserve.startup_ms", startups)
	res.InputSHA = m.inputSHA()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	load := budget
	if cfg.trace {
		load = budget * 2 / 5
	}
	httpc := &http.Client{Timeout: 150 * time.Second}
	// Warm-up: one cycle of the four specs, untimed.
	for idx := range m.specs {
		if r := m.httpSession(httpc, srv.base, idx, -1, nil); r.why != "" {
			res.Attempted++
			res.fail("warm-up: " + r.why)
		}
	}
	runs, window := m.closedLoop(clients, load, func(_, idx, rep int) sessionRun {
		return m.httpSession(httpc, srv.base, idx, rep, cfg.rec)
	})
	good := m.count(res, runs)
	rejected := srv.rejected()
	res.set("peak_rss_mb", srv.stop(), nil)
	srv = nil
	httpc.CloseIdleConnections()
	if len(good) == 0 {
		return res, nil
	}
	m.endToEndMetrics(res, good, window)
	m.allocPass(res, 2)
	if cfg.trace {
		res.set("mustserve.rejected", rejected, nil)
		return res, m.layerMetrics(res, cfg, clients, budget*3/5)
	}
	return res, nil
}
