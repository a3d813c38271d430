// Package engine holds the deadlock analysis every detection runs —
// Analysis, the paper's AND⊕OR criterion on the grouped wait-state
// snapshot — and the oracles a differential run cross-checks it with.
//
// One analysis with nothing to disagree with it would hide a bug in
// matching, snapshot build or the fixpoint. So each oracle engine consumes
// the same inputs (a root-side wait-state snapshot, or a pre-run call
// trace) and independently produces a Verdict plus the set of deadlocked
// ranks. A differential run executes them beside the analysis and reports
// any disagreement with the WFG reference as a deviation — a standing
// oracle the chaos suites turn into a hard failure.
//
// The oracles differ in what they can decide:
//
//   - wfg (reference): the paper's AND⊕OR release fixpoint. Always
//     applicable to a snapshot; its verdict and deadlocked set define
//     ground truth for the comparison.
//   - cmh: a Chandy–Misra–Haas probe computation over the same snapshot.
//     Always applicable; must agree exactly (verdict and set).
//   - twocycle: the cheap mutual-wait screen. Sound but incomplete: when
//     it fires, the reference must agree a deadlock exists and the pair
//     members must be in the reference residue; when it cannot conclude
//     anything it returns ErrInconclusive and is skipped.
//   - static: Liao-style queue matching over a pre-run recorded call
//     trace. Only applicable to deterministic traces (no wildcards, no
//     probes, no any-completion waits); returns ErrInapplicable otherwise.
//     Compared at the run level (must.Run), not the snapshot level,
//     because its synchronous model intentionally predicts potential
//     deadlocks an eager runtime may not manifest.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dwst/internal/trace"
	"dwst/internal/waitstate"
)

// Verdict classifies the outcome of one detection run.
type Verdict int

const (
	// VerdictNone: no deadlock and no stalled rank was found.
	VerdictNone Verdict = iota
	// VerdictDeadlock is a true communication deadlock: a cycle/knot of
	// ranks waiting on each other, all of them alive.
	VerdictDeadlock
	// VerdictDeadlockByFailure is a deadlock whose residue contains
	// crashed ranks: the blocked ranks wait (transitively) on processes
	// that died, not on each other's communication choices.
	VerdictDeadlockByFailure
	// VerdictStalled: no wait-state deadlock, but the progress watchdog
	// flagged ranks that are alive yet issue no MPI calls past the quiet
	// period — a hang class the pure wait-state analysis cannot see.
	VerdictStalled
)

func (v Verdict) String() string {
	switch v {
	case VerdictDeadlock:
		return "deadlock"
	case VerdictDeadlockByFailure:
		return "deadlock-by-failure"
	case VerdictStalled:
		return "stalled"
	default:
		return "none"
	}
}

// Deadlockish reports whether the verdict is in the deadlock family
// (VerdictDeadlock or VerdictDeadlockByFailure).
func (v Verdict) Deadlockish() bool {
	return v == VerdictDeadlock || v == VerdictDeadlockByFailure
}

// Wait is one rank's blocking condition. Targets are explicit world ranks
// (resolved sources have already been translated by the snapshot builder).
// Others, when set, adds "every member of that set but me" — a wildcard
// communicator, a collective wave's missing participants — by reference:
// the members follow Targets in the expanded list, less the waiting rank
// itself and ranks Targets already names. Snapshot.Flat expands it away.
type Wait struct {
	Sem     waitstate.Semantics
	Targets []int
	Desc    string
	Others  *RankSet
}

// Snapshot is the engine-neutral view of one consistent wait state at the
// root: exactly the information the WFG build consumed, with no graph
// structure imposed, so independent engines cannot inherit a graph-build
// bug from the reference.
type Snapshot struct {
	// Procs is the total number of application ranks.
	Procs int
	// Blocked maps each blocked rank to its wait condition. This includes
	// the permanently blocked sinks: crashed ranks (AND-wait on themselves)
	// and unknown ranks (OR-wait over the empty set).
	Blocked map[int]Wait
	// Finished lists ranks that reached MPI_Finalize: they can never
	// satisfy a waiter again.
	Finished []int
	// Dead lists crashed application ranks (ascending); each is also
	// present in Blocked as an AND{self} sink.
	Dead []int
	// Unknown lists ranks whose wait state is unobservable (hosting tool
	// node crashed); each is also present in Blocked as an OR-over-∅ sink,
	// unless it is already in Dead.
	Unknown []int
	// Stalled lists ranks the progress watchdog flagged. They may still
	// resume, so they never appear in Blocked.
	Stalled []int
}

// Input carries the inputs an engine may consume. Snapshot engines read
// Snapshot; trace engines read Trace/TraceLimits.
type Input struct {
	// Snapshot is the consistent wait state gathered at the root (nil when
	// analyzing a pre-run trace only).
	Snapshot *Snapshot
	// Trace is the per-rank recorded call sequence of a pre-run recording
	// pass (nil when analyzing a snapshot only).
	Trace [][]trace.Op
	// TraceLimits lists recording limitations that make the trace
	// unsuitable for static analysis (e.g. data-dependent Test polling).
	TraceLimits []string
}

// Engine is one deadlock-detection algorithm. Implementations must be
// stateless (safe for reuse across detections) and deterministic.
type Engine interface {
	// Name is the stable identifier used in stats and deviation reports.
	Name() string
	// Analyze produces the verdict and the deadlocked ranks (ascending).
	// It returns ErrInapplicable when the input is outside the engine's
	// domain and ErrInconclusive when a screen cannot decide either way;
	// both are skipped by the differential comparison. Any other error is
	// itself a deviation.
	Analyze(in Input) (Verdict, []int, error)
}

// PartialDetector is an optional interface for screens whose deadlocked
// set is a witness subset of the true residue rather than the full set;
// the differential comparison uses subset semantics for them.
type PartialDetector interface {
	Partial() bool
}

// ErrInapplicable reports that the input is outside the engine's domain
// (e.g. a wildcard trace handed to the static engine). Not a deviation.
var ErrInapplicable = errors.New("engine not applicable to this input")

// ErrInconclusive reports that a screening engine could not decide either
// way (it only ever proves deadlocks, never their absence). Not a
// deviation.
var ErrInconclusive = errors.New("engine inconclusive on this input")

// Classify derives the verdict from a snapshot and the computed deadlocked
// set, shared by all snapshot engines: a residue containing crashed ranks
// is a failure-induced deadlock; no residue but watchdog-flagged ranks is
// a stall; otherwise none.
func Classify(s *Snapshot, deadlocked []int) Verdict {
	if len(deadlocked) > 0 {
		for _, rk := range s.Dead {
			if slices.Contains(deadlocked, rk) {
				return VerdictDeadlockByFailure
			}
		}
		return VerdictDeadlock
	}
	if len(s.Stalled) > 0 {
		return VerdictStalled
	}
	return VerdictNone
}

// Finding is one engine's result on one input, ready for comparison.
type Finding struct {
	Engine     string
	Verdict    Verdict
	Deadlocked []int
	Err        error
}

// VerdictString renders the finding for the stats JSON: the verdict, or
// the skip reason for engines that could not run on this input.
func (f Finding) VerdictString() string {
	switch {
	case errors.Is(f.Err, ErrInapplicable):
		return "inapplicable"
	case errors.Is(f.Err, ErrInconclusive):
		return "inconclusive"
	case f.Err != nil:
		return "error: " + f.Err.Error()
	default:
		return f.Verdict.String()
	}
}

// RunAll executes every engine on the input and returns one Finding per
// engine, in the given order.
func RunAll(engines []Engine, in Input) []Finding {
	var out []Finding
	for _, e := range engines {
		v, dl, err := e.Analyze(in)
		out = append(out, Finding{Engine: e.Name(), Verdict: v, Deadlocked: dl, Err: err})
	}
	return out
}

// Deviations compares engine findings against the reference finding and
// returns one human-readable deviation per disagreement. Inapplicable and
// inconclusive engines are skipped; any other engine error is reported as
// a deviation (an engine crashing on valid input is a bug worth failing
// on). Exact-set engines must match verdict and deadlocked set; partial
// detectors (PartialDetector) must agree on the deadlock family and their
// witness set must be contained in the reference residue.
func Deviations(ref Finding, engines []Engine, findings []Finding) []string {
	partial := make(map[string]bool, len(engines))
	for _, e := range engines {
		if pd, ok := e.(PartialDetector); ok && pd.Partial() {
			partial[e.Name()] = true
		}
	}
	var out []string
	for _, f := range findings {
		if f.Engine == ref.Engine {
			continue
		}
		switch {
		case errors.Is(f.Err, ErrInapplicable) || errors.Is(f.Err, ErrInconclusive):
			continue
		case f.Err != nil:
			out = append(out, fmt.Sprintf("%s: error: %v", f.Engine, f.Err))
		case partial[f.Engine]:
			if f.Verdict.Deadlockish() && !ref.Verdict.Deadlockish() {
				out = append(out, fmt.Sprintf("%s: found a deadlock %v where reference %s found %s",
					f.Engine, f.Deadlocked, ref.Engine, ref.Verdict))
			} else if !subsetOf(f.Deadlocked, ref.Deadlocked) {
				out = append(out, fmt.Sprintf("%s: witness set %v not contained in reference residue %v",
					f.Engine, f.Deadlocked, ref.Deadlocked))
			}
		default:
			if f.Verdict != ref.Verdict {
				out = append(out, fmt.Sprintf("%s: verdict %s, reference %s says %s",
					f.Engine, f.Verdict, ref.Engine, ref.Verdict))
			} else if !slices.Equal(f.Deadlocked, ref.Deadlocked) {
				out = append(out, fmt.Sprintf("%s: deadlocked set %v, reference %s says %v",
					f.Engine, f.Deadlocked, ref.Engine, ref.Deadlocked))
			}
		}
	}
	return out
}

func subsetOf(sub, super []int) bool {
	in := make(map[int]bool, len(super))
	for _, s := range super {
		in[s] = true
	}
	for _, s := range sub {
		if !in[s] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
