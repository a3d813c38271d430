package core

import (
	"time"

	"dwst/internal/detect"
	"dwst/internal/dws"
	"dwst/internal/report"
	"dwst/internal/tbon"
)

// Timings is the detection-phase breakdown of Figures 10(b)/11(b).
type Timings = detect.Timings

// ToolMessages is the distributed tool's census of wait-state messages
// (passSend / recvActive / recvActiveAck / collectiveReady).
type ToolMessages = dws.Stats

// Counters are the tool-plane counters a Report embeds: the fold of every
// tool process's tbon.Counters.
type Counters = tbon.Counters

// Report is the outcome of a tool run. It is the one declaration of the
// run's result: Run fills it directly, must.Report is an alias of it, and
// session.RunStats flattens it for the stats JSON.
type Report struct {
	// Deadlock reports whether a deadlock was found.
	Deadlock bool
	// PotentialOnly is set when the application completed but the strict
	// blocking model revealed a deadlock (e.g. unbuffered send–send, the
	// 126.lammps case).
	PotentialOnly bool
	// Deadlocked, Blocked and Cycle identify the affected ranks.
	Deadlocked []int
	Blocked    []int
	Cycle      []int
	// Groups decomposes the deadlocked set into independent deadlock
	// clusters (e.g. pairwise send-send deadlocks yield one group per pair).
	Groups [][]int
	// Conditions describes each blocked rank's wait-for condition.
	Conditions map[int]string
	// UnexpectedMatches counts Sec. 3.3 wildcard situations in the state.
	UnexpectedMatches int
	// Arcs is the wait-for graph size.
	Arcs int
	// HTML and DOT are the report artifacts — the MUST-style page and the
	// full wait-for graph of the deadlocked ranks — rendered when asked
	// (WriteTo streams, String builds in memory); empty without a deadlock.
	HTML report.Artifact
	DOT  report.Artifact
	// SimplifiedDOT is the class-compressed wait-for graph whose size is
	// proportional to the number of distinct wait patterns rather than to
	// p² (the paper's Sec. 6 graph-simplification direction); Summary is
	// its one-line description.
	SimplifiedDOT string
	Summary       string
	// Timings is the detection breakdown (Distributed mode only).
	Timings Timings

	// CallMismatches lists collective verification errors: participants of
	// one collective wave issued different operations or roots (one of
	// MUST's checks beyond deadlock detection).
	CallMismatches []string
	// LostMessages counts sends that never matched any receive (from the
	// final detection after the application finished); meaningful when the
	// application completed (AppAborted == false).
	LostMessages int

	// Verdict classifies the run: none, deadlock (a communication cycle),
	// deadlock-by-failure (waits unsatisfiable because ranks crashed), or
	// stalled (progress watchdog fired without a deadlock). Over several
	// detection rounds the first non-none verdict wins.
	Verdict detect.Verdict
	// DeadRanks lists crashed application ranks; DeadLastCalls maps each to
	// its completed MPI call count; FailureBlocked lists the live ranks
	// transitively blocked on the failure.
	DeadRanks      []int
	DeadLastCalls  map[int]int
	FailureBlocked []int
	// StalledRanks lists ranks the progress watchdog flagged; WatchdogFires
	// counts detections that reported at least one stalled rank.
	StalledRanks  []int
	WatchdogFires int

	// EngineVerdicts maps each oracle engine (wfg, cmh, twocycle, static) to
	// its verdict string ("none", "deadlock", …, or "inapplicable"/
	// "inconclusive"/"error: …"), merged over all detection rounds plus the
	// static pre-run pass. Nil unless Options.Differential.
	EngineVerdicts map[string]string
	// EngineDeviations lists engine disagreements with the WFG reference
	// (differential mode; empty means every applicable engine agreed).
	EngineDeviations []string
	// DroppedResults counts completed detections the root could not
	// deliver to the driver within the delivery timeout (should be zero).
	DroppedResults int

	// Partial marks a degraded report: tool nodes hosting UnknownRanks
	// crashed, so those ranks' wait states are unknown (conservatively
	// modeled as permanently blocked) — or the run was Overloaded or
	// FinalUnverified (below).
	Partial      bool
	UnknownRanks []int
	// DroppedEvents counts application events lost because their hosting
	// tool node crashed (degraded-mode observation gap).
	DroppedEvents int
	// SnapshotRetries counts consistent-state attempts that missed
	// SnapshotDeadline and were retried under a fresh epoch.
	SnapshotRetries int
	// FinalUnverified marks a run whose after-the-application detection
	// gave up — every bounded attempt missed SnapshotDeadline — or found no
	// deadlock on a tool that never drained (quiescence not established
	// before its deadline). The report is then Partial — without a Deadlock
	// it says nothing was found, not that nothing is there.
	FinalUnverified bool
	// Err is set when the run never executed: options rejected (see
	// Options.Validate) or the TCP fabric failed to assemble (e.g. workers
	// never connected). Tool aborts of a running application (deadlock,
	// stall) do NOT set Err.
	Err error
	// AbortCause is the cause the application was aborted with, when it
	// was: the tool's deadlock/stall abort (ErrDeadlockDetected,
	// ErrStalled), an Options.Context cancellation cause, mpisim's hang
	// watchdog, or a contained rank panic (mpisim.PanicError). Nil when the
	// application completed on its own.
	AbortCause error

	// Counters are the tool-plane counters folded over every tool process
	// (sums; high-water marks by max). A recovered crash counted in
	// Recoveries does NOT set Partial.
	Counters
	// JournalHighWater is the largest live journal suffix observed on any
	// first-layer slot — bounded-memory evidence: with watermark GC it
	// tracks outstanding work, not run length.
	JournalHighWater int
	// ReplayedMsgs counts journal entries re-applied during recoveries;
	// ReplayTime is the total wall clock spent replaying (both in-process
	// and worker-side wire replay after a supervised respawn).
	ReplayedMsgs int
	ReplayTime   time.Duration
	// RespawnBackoff is the total wall clock the orchestrator spent in
	// worker-respawn backoff delays (filled by the orchestrator, not Run).
	RespawnBackoff time.Duration

	// MemBudget echoes the resolved per-process byte budget the run was
	// governed by (see Options.MemBudget; the accounting is in Counters).
	// Overloaded marks a run whose budget was genuinely exhausted despite
	// backpressure (a stalled or dead link pinning buffered frames): the
	// report is then also Partial — honest degradation instead of
	// unbounded growth.
	MemBudget  int64
	Overloaded bool

	// Run statistics. Elapsed is the wall-clock duration of the application
	// run (including tool-induced slowdown, excluding post-run analysis);
	// WindowHighWater the largest trace window over all first-layer nodes
	// (Sec. 4.2 memory discussion).
	Elapsed         time.Duration
	Detections      int
	ToolNodes       int
	WindowHighWater int
	AppAborted      bool
	// ToolMessages aggregates the wait-state messages generated across all
	// first-layer nodes.
	ToolMessages ToolMessages
}

// setDeadlock records the first detection that found a deadlock: the
// wait-for graph findings and the generated artifacts.
func (rep *Report) setDeadlock(d *detect.Result) {
	rep.Deadlock = true
	rep.Deadlocked = d.Deadlocked
	rep.Blocked = d.Blocked
	rep.Cycle = d.Cycle
	rep.Groups = d.Groups
	rep.UnexpectedMatches = len(d.UnexpectedMatches)
	rep.Arcs = d.Arcs
	rep.HTML = d.HTML
	rep.DOT = d.DOT
	rep.SimplifiedDOT = d.SimplifiedDOT
	rep.Summary = d.Summary
	rep.Timings = d.Timings
	rep.Conditions = make(map[int]string, len(d.Entries))
	for r, e := range d.Entries {
		rep.Conditions[r] = e.Desc
	}
}
