// Package must is the public entry point of the runtime deadlock detection
// tool — a Go reproduction of MUST with the distributed wait state tracking
// of Hilbrich et al., "Distributed Wait State Tracking for Runtime MPI
// Deadlock Detection" (SC '13).
//
// It runs an mpi.Program under one of two tool architectures:
//
//   - Distributed (the paper's contribution, Figure 1(b)): a tree-based
//     overlay network whose first layer performs distributed point-to-point
//     matching and wait-state tracking; collectives are matched over the
//     whole tree; only the rare, timeout-triggered graph search runs
//     centrally at the root.
//   - Centralized (the prior architecture, Figure 1(a)): a single tool
//     process that receives all events and rescans the wait-state
//     transition system after each operation.
//
// Both detect actual deadlocks precisely (aborting the application and
// producing an HTML report plus a DOT wait-for graph) and flag *potential*
// deadlocks that did not manifest because the MPI implementation buffered
// sends — the strict interpretation of MPI blocking semantics from
// Section 3.3 of the paper.
//
// Options and Report are aliases of the tool driver's own types: each is
// declared once, in internal/core, and its fields are documented there
// (go doc dwst/internal/core.Options, go doc dwst/internal/core.Report).
package must

import (
	"errors"
	"fmt"

	"dwst/internal/centralized"
	"dwst/internal/core"
	"dwst/internal/detect"
	"dwst/internal/engine"
	"dwst/internal/fault"
	"dwst/internal/mpisim"
	"dwst/mpi"
)

// FaultPlan re-exports fault.Plan so callers can describe link faults and
// tool-node crashes without importing internal packages.
type FaultPlan = fault.Plan

// FaultRule re-exports fault.Rule.
type FaultRule = fault.Rule

// Crash re-exports fault.Crash.
type Crash = fault.Crash

// RankCrash re-exports fault.RankCrash (application rank dies mid-run).
type RankCrash = fault.RankCrash

// RankStall re-exports fault.RankStall (application rank stops issuing
// MPI calls without blocking — sleep or livelock).
type RankStall = fault.RankStall

// NetOptions re-exports core.NetOptions: configuration of the coordinator
// side of a TCP-fabric run (Options.Net).
type NetOptions = core.NetOptions

// WorkerOptions re-exports core.WorkerOptions (RunWorker configuration).
type WorkerOptions = core.WorkerOptions

// NetControl re-exports core.NetControl: the orchestrator's handle into a
// running coordinator, used to mint recovery tokens for supervised worker
// respawns. Place one in NetOptions.Control before Run.
type NetControl = core.NetControl

// Verdict re-exports detect.Verdict, the run classification.
type Verdict = detect.Verdict

// Verdict values.
const (
	VerdictNone              = detect.VerdictNone
	VerdictDeadlock          = detect.VerdictDeadlock
	VerdictDeadlockByFailure = detect.VerdictDeadlockByFailure
	VerdictStalled           = detect.VerdictStalled
)

// Mode selects the tool architecture.
type Mode = core.Mode

const (
	// Distributed is the paper's TBON architecture (default).
	Distributed = core.Distributed
	// Centralized is the prior single-tool-process architecture.
	Centralized = core.Centralized
)

// PanicError re-exports mpisim.PanicError: the abort cause when a rank's
// program panicked. The simulator contains the panic to its own run, so an
// embedder multiplexing many runs in one process (the mustserve analysis
// service) survives a buggy program; check for it with errors.As on
// Report.AbortCause.
type PanicError = mpisim.PanicError

// DefaultMemBudget is the tool-plane byte budget per process that a zero
// Options.MemBudget selects: generous enough that healthy runs never
// approach it, small enough that a pinned link under an event storm degrades
// the run long before the OS would kill the process.
const DefaultMemBudget = core.DefaultMemBudget

// Options configures a tool run; Options.Validate reports the combinations
// Run refuses. The type is declared — and every field documented — once, in
// internal/core/options.go (`go doc dwst/internal/core.Options`).
type Options = core.Options

// Report is the outcome of a tool run, filled by the tool driver itself.
// Declared and documented field by field in internal/core/report.go
// (`go doc dwst/internal/core.Report`).
type Report = core.Report

// Timings is the detection-phase breakdown of Figures 10(b)/11(b)
// (Report.Timings).
type Timings = core.Timings

// ToolMessages is the distributed tool's wait-state message census
// (Report.ToolMessages).
type ToolMessages = core.ToolMessages

// Counters are the tool-plane counters embedded in Report (transport,
// TCP-fabric, recovery and resource-governance accounting).
type Counters = core.Counters

// Run executes prog on procs ranks under the tool. Options that fail
// Validate are not run: the report carries the reason in Err.
func Run(procs int, prog mpi.Program, opts Options) *Report {
	if err := opts.Validate(); err != nil {
		return &Report{Err: fmt.Errorf("must: %w", err)}
	}
	simProg := func(p *mpisim.Proc) { prog(mpi.NewProc(p)) }

	if opts.Mode == Centralized {
		mode := mpisim.Eager
		if opts.Rendezvous {
			mode = mpisim.Rendezvous
		}
		res := centralized.Run(centralized.Config{
			Ctx:                      opts.Context,
			Procs:                    procs,
			Timeout:                  opts.Timeout,
			EventBuf:                 opts.EventBuf,
			SendMode:                 mode,
			BufferSlots:              opts.BufferSlots,
			BufferedSendCost:         opts.BufferedSendCost,
			SsendEvery:               opts.SsendEvery,
			SynchronizingCollectives: opts.SynchronizingCollectives,
			TrackCallSites:           opts.TrackCallSites,
		}, simProg)
		rep := &Report{
			Deadlock:          res.Deadlock,
			PotentialOnly:     res.Deadlock && res.AppErr == nil,
			Deadlocked:        res.Deadlocked,
			Blocked:           res.Blocked,
			Cycle:             res.Cycle,
			Groups:            res.Groups,
			Conditions:        res.Conditions,
			UnexpectedMatches: res.Unexpected,
			HTML:              res.HTML,
			DOT:               res.DOT,
			CallMismatches:    res.CallMismatches,
			LostMessages:      res.LostMessages,
			Elapsed:           res.Elapsed,
			Detections:        res.Detections,
			ToolNodes:         1,
			AppAborted:        res.AppErr != nil,
			AbortCause:        res.AppErr,
		}
		if res.Deadlock {
			// The baseline knows no rank failures or stalls: every deadlock
			// it finds is a communication deadlock.
			rep.Verdict = VerdictDeadlock
		}
		return rep
	}

	// Static pre-run pass (differential oracle leg): record the program's
	// call traces by sequential per-rank execution (nothing blocks in the
	// recorder) and run the Liao-style queue-matching simulation on the
	// deterministic subset. The finding is compared with the runtime
	// verdict after the run.
	var static *engine.Finding
	if opts.Differential {
		ct := mpi.Record(procs, prog)
		v, dl, err := (engine.Static{}).Analyze(engine.Input{Trace: ct.Ops, TraceLimits: ct.Limits})
		static = &engine.Finding{Engine: "static", Verdict: v, Deadlocked: dl, Err: err}
	}

	rep := core.Run(procs, simProg, opts)
	if static != nil {
		if rep.EngineVerdicts == nil {
			rep.EngineVerdicts = make(map[string]string, 1)
		}
		rep.EngineVerdicts["static"] = static.VerdictString()
		if dev := staticDeviation(rep, static, opts); dev != "" {
			rep.EngineDeviations = append(rep.EngineDeviations, dev)
		}
	}
	return rep
}

// staticDeviation compares the static pre-run finding with the runtime
// verdict. The static pass simulates the strict synchronous model on the
// recorded call sequences, so the contract is asymmetric:
//
//   - Static "none" with a runtime deadlock is always a deviation: the
//     strict model is the most blocking interpretation, so a program that
//     completes under it cannot deadlock at runtime.
//   - Static "deadlock" with runtime "none" is a deviation only under
//     Rendezvous semantics (then both sides evaluate the same model); with
//     eager sends it is the tool's documented potential-deadlock
//     prediction, not a disagreement.
//
// Runs that were interrupted, degraded, or perturbed at the application
// level (rank crashes, stalls, partial reports, config errors, external
// cancellation) are not compared — the runtime observed a different
// program than the recorder did.
func staticDeviation(rep *Report, static *engine.Finding, opts Options) string {
	if static.Err != nil {
		if errors.Is(static.Err, engine.ErrInapplicable) || errors.Is(static.Err, engine.ErrInconclusive) {
			return ""
		}
		return fmt.Sprintf("static: error: %v", static.Err)
	}
	interrupted := rep.AppAborted && !rep.Deadlock && rep.Verdict == VerdictNone
	if rep.Err != nil || rep.Partial || interrupted ||
		len(rep.DeadRanks) > 0 || len(rep.StalledRanks) > 0 ||
		(opts.Context != nil && opts.Context.Err() != nil) {
		return ""
	}
	switch {
	case static.Verdict == engine.VerdictNone && rep.Verdict == VerdictDeadlock:
		return fmt.Sprintf("static: verdict none, runtime found a deadlock %v", rep.Deadlocked)
	case opts.Rendezvous && static.Verdict == engine.VerdictDeadlock && rep.Verdict == VerdictNone:
		return fmt.Sprintf("static: predicted a deadlock %v under rendezvous semantics, runtime found none", static.Deadlocked)
	}
	return ""
}

// RunWorker runs one worker process of a TCP-fabric tool run: it dials the
// coordinator at addr, hosts its share of the first tool layer, and blocks
// until the coordinator shuts it down (nil) or the fabric fails permanently
// (error). The mustnode binary is a thin wrapper around this call.
func RunWorker(addr string, worker int, opts WorkerOptions) error {
	return core.RunWorker(addr, worker, opts)
}
