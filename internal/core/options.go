package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dwst/internal/fault"
	"dwst/internal/tbon"
)

// Mode selects the tool architecture.
type Mode int

const (
	// Distributed is the paper's TBON architecture (default).
	Distributed Mode = iota
	// Centralized is the prior single-tool-process architecture.
	Centralized
)

// DefaultMemBudget is the tool-plane byte budget per process that a zero
// Options.MemBudget selects (see tbon.DefaultMemBudget).
const DefaultMemBudget = tbon.DefaultMemBudget

// Options configures a tool run. It is the one declaration of the run's
// options: must.Options is an alias of it, session.Spec and the mustrun
// flags build it, and Run reads it directly.
type Options struct {
	// Context, when non-nil, cancels the run from outside: on Done the
	// application world aborts with context.Cause, blocked ranks unwind,
	// and the tool tears down cleanly. External cancellation, per-session
	// deadlines, the tool's own deadlock/stall aborts, and mpi.Options.
	// HangTimeout all share one cancellation path — the simulated world's
	// abort. The cause is reported in Report.AbortCause.
	Context context.Context
	// Mode selects the tool architecture (default Distributed).
	Mode Mode
	// FanIn is the TBON fan-in (2, 4 or 8 in the paper; default 4).
	FanIn int
	// Timeout is the event-quiescence period before the root triggers
	// graph-based detection (Sec. 5; default 50ms).
	Timeout time.Duration
	// EventBuf bounds the application→tool intake. Distributed mode: how
	// many operations a first-layer node may hold per hosted rank — events
	// not yet dispatched plus its trace window. A rank's next call waits
	// while its node holds EventBuf × hosted ranks of them and the tool is
	// still working on them (default tbon.DefaultEventBuf, 128); over TCP
	// it is the per-leaf window of event frames in flight instead. A bound
	// below the program's live working set (operations kept until a later
	// call, such as Isends before their Waitall) cannot be met: holds then
	// end only when the tool goes idle or the slot goes stale, and the
	// window reaches the working set anyway — 128.GAPgeofem keeps about 550
	// operations per node, so EventBuf 16 holds its ranks for nothing.
	// Centralized mode: the depth of the one tool process's event queue
	// (default 1024).
	EventBuf int
	// LinkDelay injects a per-message delay on tool-internal links
	// (fault injection for robustness testing).
	LinkDelay time.Duration
	// Fault injects link faults (message drop / duplication / reordering /
	// jitter / stalls), tool-node crashes and application-rank faults; nil
	// (the default) runs fault-free. The reliable transport and the crash
	// supervisor activate only when a plan is present. Distributed mode
	// only.
	Fault *fault.Plan
	// SnapshotDeadline bounds one consistent-state attempt before the root
	// aborts and retries it under a fresh epoch (Sec. 5's protocol is
	// deadlock-free only when messages arrive, so unhealed loss must time
	// out rather than wedge; default 2s). Distributed mode only.
	SnapshotDeadline time.Duration
	// WatchdogQuiet enables the progress watchdog: the driver stamps when
	// each rank last emitted an event, and a detection flags a rank Stalled
	// when it is alive, not blocked in MPI, and issued no call for longer
	// than this period. Zero (the default) disables the watchdog and its
	// clock entirely. Distributed mode only.
	WatchdogQuiet time.Duration
	// Differential also runs the oracles — the flat wfg reference, CMH and
	// TwoCycle on each snapshot, and the static pre-run queue-matching pass
	// — records their verdicts in Report.EngineVerdicts, and reports
	// disagreements with the analysis or the wfg reference in
	// Report.EngineDeviations: the standing differential oracle. The verdict
	// is the analysis's either way. Distributed mode only.
	Differential bool
	// Net, when non-nil, runs the distributed tool over real TCP sockets:
	// this process is the coordinator (upper tool layers, root, driver,
	// application) and Net.Workers separate worker processes (started via
	// RunWorker, typically the mustnode binary) own the first tool layer.
	// Distributed mode only; mutually exclusive with Fault — over real
	// sockets the adversary is the wire.
	Net *NetOptions
	// MemBudget bounds resident tool-plane buffer bytes per process: dws
	// data traffic is byte-accounted across the tool's internal queues (and
	// TCP send buffers), backpressure propagates to the rank → tool intake
	// when buffers approach the budget, and genuine exhaustion (a stalled
	// link pinning frames) degrades the run honestly — Report.Overloaded +
	// Partial — instead of growing without limit. Control traffic
	// (snapshot/epoch control, supervision) is never charged or gated, so
	// supervision cannot be starved. 0 selects DefaultMemBudget;
	// there is no unbounded mode. Distributed mode only.
	MemBudget int64

	// TrackCallSites records the application source line of every MPI call
	// so wait-for conditions and reports point at code (one runtime.Caller
	// lookup per call).
	TrackCallSites bool

	// Application/runtime semantics.
	Rendezvous               bool // standard sends block until matched
	BufferSlots              int
	BufferedSendCost         int
	SsendEvery               int // every n-th standard send synchronous
	SynchronizingCollectives bool
}

// Validate rejects option combinations the tool would otherwise silently
// ignore or trip over: every entry point (the library, session.Spec, the
// mustrun flags) goes through it, so a combination is either run as asked
// or refused.
func (o *Options) Validate() error {
	if o.Mode != Distributed && o.Mode != Centralized {
		return fmt.Errorf("bad mode %d: want Distributed or Centralized", o.Mode)
	}
	if o.FanIn < 0 || o.FanIn == 1 {
		return fmt.Errorf("bad fan-in %d: want 0 (default) or >= 2", o.FanIn)
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("bad memory budget %d: want 0 (default) or a positive byte count", o.MemBudget)
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"event buffer", o.EventBuf}, {"buffer slots", o.BufferSlots},
		{"buffered-send cost", o.BufferedSendCost}, {"synchronous-send period", o.SsendEvery},
	} {
		if n.v < 0 {
			return fmt.Errorf("bad %s %d: want >= 0", n.name, n.v)
		}
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"timeout", o.Timeout}, {"link delay", o.LinkDelay},
		{"snapshot deadline", o.SnapshotDeadline}, {"watchdog quiet period", o.WatchdogQuiet},
	} {
		if d.v < 0 {
			return fmt.Errorf("bad %s %v: want >= 0", d.name, d.v)
		}
	}
	if o.Net != nil && (o.Fault != nil || o.LinkDelay > 0) {
		return errors.New("fault plans and link delays require the channel transport; over TCP the adversary is the wire (use the wire-level fault proxy)")
	}
	if o.Mode == Centralized {
		switch {
		case o.Fault != nil:
			return errors.New("fault plans require the distributed architecture (the centralized tool has no tree to fault)")
		case o.Net != nil:
			return errors.New("the TCP fabric requires the distributed architecture (the centralized tool has no tree to distribute)")
		case o.WatchdogQuiet > 0:
			return errors.New("the progress watchdog requires the distributed architecture")
		case o.Differential:
			return errors.New("differential mode requires the distributed architecture")
		case o.MemBudget > 0:
			return errors.New("a memory budget requires the distributed architecture (the centralized tool has no tool plane to govern)")
		}
	}
	return nil
}
