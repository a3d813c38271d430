// Package session factors one detection session's lifecycle — config →
// build tree → drive workload → verdict/report — out of cmd/mustrun into a
// reusable unit, and multiplexes many such sessions over a bounded worker
// pool (Service): the substrate of the long-lived mustserve analysis
// server. A session is described by a JSON-serializable Spec, executed by
// Run under an outside context (deadline/cancellation), classified into an
// explicit terminal State (done, canceled, failed, internal_error — a
// panicking tenant program never takes the process down), and optionally
// checkpointed to disk (Store) so a killed-and-restarted server resumes or
// honestly fails in-flight sessions instead of silently forgetting them.
package session

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// Duration is a JSON-friendly time.Duration: it marshals to a Go duration
// string ("50ms") and unmarshals from either a duration string or a bare
// number of milliseconds — the natural unit for JSON API clients.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "50ms"-style strings and bare millisecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("bad duration %q: %v", x, err)
		}
		*d = Duration(p)
		return nil
	case float64:
		*d = Duration(time.Duration(x * float64(time.Millisecond)))
		return nil
	}
	return fmt.Errorf("bad duration %v: want a duration string or milliseconds", v)
}

// CrashSpec schedules one first-layer tool-node crash (fault.Crash at
// layer 0, the only layer the CLI and API expose).
type CrashSpec struct {
	Node           int `json:"node"`
	AfterEnvelopes int `json:"after_envelopes,omitempty"`
}

// FaultSpec is the JSON form of a fault plan: link faults, tool-node
// crashes and application-rank faults, with the recovery knobs. The
// rank-fault fields use the mustrun mini-language ("rank[:atCall],..." and
// "rank:atCall:dur[:busy],...") so CLI flags and API submissions share one
// parser and one validation path.
type FaultSpec struct {
	Seed    int64   `json:"seed,omitempty"`
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`
	// JitterMax delays each affected message by a uniform random duration
	// up to this bound.
	JitterMax Duration `json:"jitter_max,omitempty"`
	// Crashes schedules first-layer tool-node crashes.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// RankCrashes is "rank[:atCall],..." (e.g. "2:5,7").
	RankCrashes string `json:"rank_crashes,omitempty"`
	// RankStalls is "rank:atCall:dur[:busy],..." (dur 0 = forever).
	RankStalls string `json:"rank_stalls,omitempty"`
	// Recover enables exact recovery of crashed first-layer nodes
	// (journal replay). Nil defaults to true, matching mustrun -recover.
	Recover *bool `json:"recover,omitempty"`
	// JournalCap is the recovery-journal suffix length forcing a
	// checkpoint (0 = default).
	JournalCap int `json:"journal_cap,omitempty"`
}

// Spec describes one detection session: which workload to run under the
// tool, with which tool configuration and fault plan. The zero value of
// every optional field selects the mustrun default.
type Spec struct {
	// Workload names a registered workload (see RegisterWorkload):
	// stress, wildcard, recvrecv, fig2b, unexpected, clean, or
	// spec:<name> for a SPEC MPI2007 proxy.
	Workload string `json:"workload"`
	// Procs is the number of MPI ranks (required, > 0).
	Procs int `json:"procs"`
	// Iters parameterizes iteration-driven workloads (default 50).
	Iters int `json:"iters,omitempty"`
	// Mode is "distributed" (default) or "centralized".
	Mode string `json:"mode,omitempty"`
	// FanIn is the TBON fan-in (default 4).
	FanIn int `json:"fanin,omitempty"`
	// Timeout is the detection quiescence timeout (default 50ms).
	Timeout Duration `json:"timeout,omitempty"`
	// Rendezvous forces synchronous standard sends.
	Rendezvous bool `json:"rendezvous,omitempty"`
	// TrackCallSites records call sites so reports point at source lines.
	TrackCallSites bool `json:"sites,omitempty"`
	// LinkDelay injects a per-message delay on tool-internal links.
	LinkDelay Duration `json:"link_delay,omitempty"`
	// SnapshotDeadline bounds one consistent-state attempt (0 = default).
	SnapshotDeadline Duration `json:"snapshot_deadline,omitempty"`
	// WatchdogQuiet enables the progress watchdog (0 = disabled).
	WatchdogQuiet Duration `json:"watchdog_quiet,omitempty"`
	// Differential also runs the oracle engines on each snapshot and the
	// static pre-run pass, and records verdict agreement/deviations.
	// Distributed mode only.
	Differential bool `json:"differential,omitempty"`
	// MemBudget bounds resident tool-plane buffer bytes per process: 0 (the
	// default) applies must.DefaultMemBudget, a positive value is the budget
	// in bytes; there is no unbounded mode. Distributed mode only.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Deadline bounds the whole session; past it the run is canceled and
	// the session ends in state canceled/"deadline exceeded". 0 uses the
	// server default (mustserve -deadline).
	Deadline Duration `json:"deadline,omitempty"`
	// Fault injects link faults, tool-node crashes and rank faults; nil
	// runs fault-free.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// workloadBuilders maps workload names to program constructors. Guarded
// because embedders and tests register extra workloads at runtime while
// service workers resolve specs concurrently.
var (
	workloadMu       sync.RWMutex
	workloadBuilders = map[string]func(iters int) mpi.Program{
		"stress":     workload.Stress,
		"clean":      workload.Stress,
		"wildcard":   func(int) mpi.Program { return workload.WildcardDeadlock() },
		"recvrecv":   func(int) mpi.Program { return workload.RecvRecvDeadlock() },
		"fig2b":      func(int) mpi.Program { return workload.Fig2b() },
		"unexpected": func(int) mpi.Program { return workload.UnexpectedMatch() },
	}
)

// RegisterWorkload adds (or replaces) a named workload available to
// sessions. The service resolves names at run time, so registration must
// precede submission of specs using the name.
func RegisterWorkload(name string, build func(iters int) mpi.Program) {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	workloadBuilders[name] = build
}

// Program resolves the spec's workload into a runnable program.
func (s *Spec) Program() (mpi.Program, error) {
	iters := s.Iters
	if iters <= 0 {
		iters = 50
	}
	if strings.HasPrefix(s.Workload, "spec:") {
		app := workload.SpecApps(strings.TrimPrefix(s.Workload, "spec:"))
		if app == nil {
			return nil, fmt.Errorf("unknown SPEC proxy %q", s.Workload)
		}
		return app.Build(iters, 20*time.Microsecond), nil
	}
	workloadMu.RLock()
	build, ok := workloadBuilders[s.Workload]
	workloadMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", s.Workload)
	}
	return build(iters), nil
}

// Validate rejects malformed specs before any work starts: a bad
// probability or cap silently clamped would make results lie about what
// was run.
func (s *Spec) Validate() error {
	_, err := s.Options()
	return err
}

// Options validates the spec and builds its must.Options (channel
// transport; the TCP fabric is a mustrun orchestration concern layered on
// top). What is about the JSON form is checked here — workload lookup, the
// mode name, probability ranges, the rank-crash/stall mini-language; option
// compatibility and ranges are must.Options.Validate's, the same rules a
// library caller of must.Run gets.
func (s *Spec) Options() (must.Options, error) {
	opts, err := s.options()
	if err == nil {
		err = opts.Validate()
	}
	if err != nil {
		return must.Options{}, fmt.Errorf("spec: %v", err)
	}
	return opts, nil
}

func (s *Spec) options() (opts must.Options, err error) {
	if s.Workload == "" {
		return opts, fmt.Errorf("workload is required")
	}
	if _, err = s.Program(); err != nil {
		return opts, err
	}
	if s.Procs <= 0 {
		return opts, fmt.Errorf("bad procs %d: want > 0", s.Procs)
	}
	if s.Deadline < 0 {
		return opts, fmt.Errorf("bad deadline %v: want >= 0", time.Duration(s.Deadline))
	}
	opts = must.Options{
		FanIn:            s.FanIn,
		Timeout:          time.Duration(s.Timeout),
		Rendezvous:       s.Rendezvous,
		TrackCallSites:   s.TrackCallSites,
		LinkDelay:        time.Duration(s.LinkDelay),
		SnapshotDeadline: time.Duration(s.SnapshotDeadline),
		WatchdogQuiet:    time.Duration(s.WatchdogQuiet),
		Differential:     s.Differential,
		MemBudget:        s.MemBudget,
	}
	switch s.Mode {
	case "", "distributed":
	case "centralized":
		opts.Mode = must.Centralized
	default:
		return opts, fmt.Errorf("bad mode %q: want distributed or centralized", s.Mode)
	}
	f := s.Fault
	if f == nil {
		return opts, nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", f.Drop}, {"dup", f.Dup}, {"reorder", f.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return opts, fmt.Errorf("bad fault.%s %v: want a probability in [0, 1]", p.name, p.v)
		}
	}
	if f.JitterMax < 0 {
		return opts, fmt.Errorf("bad fault.jitter_max %v: want >= 0", time.Duration(f.JitterMax))
	}
	if f.JournalCap < 0 {
		return opts, fmt.Errorf("bad fault.journal_cap %d: want >= 0 (0 = default)", f.JournalCap)
	}
	plan := &must.FaultPlan{Seed: f.Seed, JournalCap: f.JournalCap}
	if f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.JitterMax > 0 {
		plan.Rules = []must.FaultRule{{
			Drop:      f.Drop,
			Dup:       f.Dup,
			Reorder:   f.Reorder,
			JitterMax: time.Duration(f.JitterMax),
		}}
	}
	for _, c := range f.Crashes {
		if c.Node < 0 {
			return opts, fmt.Errorf("bad fault.crashes node %d: want >= 0", c.Node)
		}
		if c.AfterEnvelopes < 0 {
			return opts, fmt.Errorf("bad fault.crashes after_envelopes %d: want >= 0", c.AfterEnvelopes)
		}
		plan.Crashes = append(plan.Crashes, must.Crash{Layer: 0, Index: c.Node, AfterEnvelopes: c.AfterEnvelopes})
	}
	if plan.RankCrashes, err = ParseRankCrashes(f.RankCrashes); err != nil {
		return opts, err
	}
	if plan.RankStalls, err = ParseRankStalls(f.RankStalls); err != nil {
		return opts, err
	}
	plan.Recover = f.Recover == nil || *f.Recover
	opts.Fault = plan
	return opts, nil
}

// ParseRankCrashes parses "rank[:atCall]" comma-separated specs (the
// mustrun -rank-crash mini-language).
func ParseRankCrashes(spec string) ([]must.RankCrash, error) {
	if spec == "" {
		return nil, nil
	}
	var out []must.RankCrash
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) > 2 {
			return nil, fmt.Errorf("bad rank-crash %q: want rank[:atCall]", part)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad rank-crash rank %q: %v", fields[0], err)
		}
		rc := must.RankCrash{Rank: rank, AtCall: 1}
		if len(fields) == 2 {
			if rc.AtCall, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("bad rank-crash call %q: %v", fields[1], err)
			}
		}
		out = append(out, rc)
	}
	return out, nil
}

// ParseRankStalls parses "rank:atCall:dur[:busy]" comma-separated specs
// (the mustrun -rank-stall mini-language); a zero duration stalls forever,
// "busy" spins instead of sleeping.
func ParseRankStalls(spec string) ([]must.RankStall, error) {
	if spec == "" {
		return nil, nil
	}
	var out []must.RankStall
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("bad rank-stall %q: want rank:atCall:dur[:busy]", part)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad rank-stall rank %q: %v", fields[0], err)
		}
		atCall, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad rank-stall call %q: %v", fields[1], err)
		}
		var dur time.Duration
		if fields[2] != "0" {
			if dur, err = time.ParseDuration(fields[2]); err != nil {
				return nil, fmt.Errorf("bad rank-stall duration %q: %v", fields[2], err)
			}
		}
		rs := must.RankStall{Rank: rank, AtCall: atCall, For: dur}
		if len(fields) == 4 {
			if fields[3] != "busy" {
				return nil, fmt.Errorf("bad rank-stall modifier %q: only \"busy\"", fields[3])
			}
			rs.Busy = true
		}
		out = append(out, rs)
	}
	return out, nil
}
