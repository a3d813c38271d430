package session

import (
	"context"
	"errors"
	"fmt"

	"dwst/must"
)

// State is a session's lifecycle state. Sessions move queued → running →
// one terminal state; terminal states are never left.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued State = "queued"
	// StateRunning: a worker is driving the workload under the tool.
	StateRunning State = "running"
	// StateDone: the run completed and produced a verdict (which may well
	// be "deadlock" — a detected deadlock is a successful session).
	StateDone State = "done"
	// StateCanceled: torn down before a verdict, by explicit cancel,
	// session deadline, or server shutdown.
	StateCanceled State = "canceled"
	// StateFailed: the spec was invalid or the run could not start.
	StateFailed State = "failed"
	// StateInternalError: the run itself misbehaved — the tenant program
	// panicked or the tool hit an internal fault. The failure is contained
	// to the session; the hosting process keeps serving.
	StateInternalError State = "internal_error"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCanceled, StateFailed, StateInternalError:
		return true
	}
	return false
}

// Outcome is the result of one session run: a terminal state, the error
// that explains any non-done state, and the flattened run statistics.
type Outcome struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Stats is present when the run executed (done, and canceled runs
	// that got far enough to produce a report).
	Stats *RunStats `json:"stats,omitempty"`
	// Report is the full tool report for embedders (the HTTP layer ships
	// Stats, not the report).
	Report *must.Report `json:"-"`
}

// Run executes one session to completion under ctx: validate, resolve the
// workload, drive it under the tool, classify the ending. It never panics
// — a panic out of the tool stack is contained into StateInternalError,
// which is what lets a multi-tenant server treat buggy submissions as
// data, not as a crash.
func Run(ctx context.Context, spec *Spec) (out *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = &Outcome{
				State: StateInternalError,
				Error: fmt.Sprintf("panic: %v", r),
			}
		}
	}()

	opts, err := spec.Options()
	if err != nil {
		return &Outcome{State: StateFailed, Error: err.Error()}
	}
	prog, err := spec.Program()
	if err != nil {
		return &Outcome{State: StateFailed, Error: err.Error()}
	}
	opts.Context = ctx

	rep := must.Run(spec.Procs, prog, opts)
	if rep.Err != nil {
		return &Outcome{State: StateFailed, Error: rep.Err.Error()}
	}

	stats := StatsFor(spec.Workload, spec.Procs, spec.modeName(), "chan", rep)
	out = &Outcome{State: StateDone, Stats: &stats, Report: rep}

	// Classify abnormal endings off the one abort path. A rank panic is
	// an internal error even if ctx has since expired — the panic is the
	// truer cause.
	var pe *must.PanicError
	if errors.As(rep.AbortCause, &pe) {
		out.State = StateInternalError
		out.Error = pe.Error()
		out.Stats.Interrupted = true
		return out
	}
	if ctx.Err() != nil && rep.AbortCause != nil && errors.Is(rep.AbortCause, context.Cause(ctx)) {
		out.State = StateCanceled
		out.Error = context.Cause(ctx).Error()
		out.Stats.Interrupted = true
	}
	return out
}

func (s *Spec) modeName() string {
	if s.Mode == "" {
		return "distributed"
	}
	return s.Mode
}

// RunStats is the flat per-run statistics schema shared by mustrun's
// -stats-json output and mustserve's session results, so CI jobs and the
// chaos suite can diff outcomes across seeds regardless of how the run
// was launched.
type RunStats struct {
	Workload       string      `json:"workload"`
	Procs          int         `json:"procs"`
	Mode           string      `json:"mode"`
	Transport      string      `json:"transport"`
	Verdict        string      `json:"verdict"`
	Deadlock       bool        `json:"deadlock"`
	PotentialOnly  bool        `json:"potential_only"`
	Deadlocked     []int       `json:"deadlocked,omitempty"`
	DeadRanks      []int       `json:"dead_ranks,omitempty"`
	DeadLastCalls  map[int]int `json:"dead_last_calls,omitempty"`
	FailureBlocked []int       `json:"failure_blocked,omitempty"`
	StalledRanks   []int       `json:"stalled_ranks,omitempty"`
	WatchdogFires  int         `json:"watchdog_fires"`
	// Counters are the report's tool-plane counters as they are: transport
	// and TCP-fabric activity, recoveries and worker respawns, and the
	// resource-governance accounting (peak resident tool-plane bytes of any
	// process, budget-exhausted admissions, gated intake waits, per-link-class
	// up/down/peer/wire depth and byte high-water marks).
	must.Counters
	DroppedEvents    int   `json:"dropped_events"`
	SnapshotRetries  int   `json:"snapshot_retries"`
	Partial          bool  `json:"partial"`
	UnknownRanks     []int `json:"unknown_ranks,omitempty"`
	JournalHighWater int   `json:"journal_high_water"`
	// WindowHighWater is the most operations any first-layer node stored at
	// once: how far its wait-state tracker fell behind its ranks.
	WindowHighWater  int   `json:"window_high_water"`
	ReplayedMsgs     int   `json:"replayed_msgs"`
	ReplayMS         int64 `json:"replay_ms"`
	RespawnBackoffMS int64 `json:"respawn_backoff_ms"`
	Detections       int   `json:"detections"`
	ToolNodes        int   `json:"tool_nodes"`
	LostMessages     int   `json:"lost_messages"`
	ElapsedMS        int64 `json:"elapsed_ms"`
	// EngineVerdicts maps each oracle engine to its verdict string
	// (differential mode only); Deviations lists disagreements with the
	// analysis or the WFG reference; DroppedResults counts
	// detections the root failed to deliver to the driver.
	EngineVerdicts   map[string]string `json:"engine_verdicts,omitempty"`
	EngineDeviations []string          `json:"engine_deviations,omitempty"`
	DroppedResults   int               `json:"dropped_results,omitempty"`
	// MemBudget is the per-process byte budget the run was governed by
	// (absent in centralized mode, which has no tool plane); Overloaded the
	// honest overload flag (overflow despite backpressure; implies partial).
	MemBudget  int64 `json:"mem_budget,omitempty"`
	Overloaded bool  `json:"overloaded,omitempty"`
	// Interrupted marks a run torn down before its natural end (signal,
	// cancel, deadline): the verdict reflects what was known at teardown,
	// not a completed analysis.
	Interrupted bool `json:"interrupted,omitempty"`
}

// StatsFor flattens a report into the shared statistics schema.
func StatsFor(wl string, procs int, mode, transport string, rep *must.Report) RunStats {
	return RunStats{
		Workload:         wl,
		Procs:            procs,
		Mode:             mode,
		Transport:        transport,
		Verdict:          rep.Verdict.String(),
		Deadlock:         rep.Deadlock,
		PotentialOnly:    rep.PotentialOnly,
		Deadlocked:       rep.Deadlocked,
		DeadRanks:        rep.DeadRanks,
		DeadLastCalls:    rep.DeadLastCalls,
		FailureBlocked:   rep.FailureBlocked,
		StalledRanks:     rep.StalledRanks,
		WatchdogFires:    rep.WatchdogFires,
		Counters:         rep.Counters,
		DroppedEvents:    rep.DroppedEvents,
		SnapshotRetries:  rep.SnapshotRetries,
		Partial:          rep.Partial,
		UnknownRanks:     rep.UnknownRanks,
		JournalHighWater: rep.JournalHighWater,
		WindowHighWater:  rep.WindowHighWater,
		ReplayedMsgs:     rep.ReplayedMsgs,
		ReplayMS:         rep.ReplayTime.Milliseconds(),
		RespawnBackoffMS: rep.RespawnBackoff.Milliseconds(),
		Detections:       rep.Detections,
		ToolNodes:        rep.ToolNodes,
		LostMessages:     rep.LostMessages,
		ElapsedMS:        rep.Elapsed.Milliseconds(),
		EngineVerdicts:   rep.EngineVerdicts,
		EngineDeviations: rep.EngineDeviations,
		DroppedResults:   rep.DroppedResults,
		MemBudget:        rep.MemBudget,
		Overloaded:       rep.Overloaded,
	}
}

// Verdict returns the stats verdict string, or "" when the run produced
// none (non-done sessions without stats).
func (o *Outcome) Verdict() string {
	if o.Stats == nil {
		return ""
	}
	return o.Stats.Verdict
}
