// Package mpisim is a message-passing runtime that stands in for a real MPI
// library: ranks run as goroutines, point-to-point messages are matched with
// MPI semantics (per-pair non-overtaking order, wildcard sources and tags),
// collectives synchronize per communicator, and sends follow configurable
// buffering modes. Every call is reported to an event.Sink, the analogue of
// PMPI interposition, which is how the deadlock-detection tool observes the
// application.
//
// The runtime can genuinely deadlock — blocked calls wait on channels until
// an abort. A configurable watchdog turns global no-progress into an abort
// for runs without a tool attached.
package mpisim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/trace"
)

// SendMode selects the buffering behaviour of standard-mode MPI_Send.
type SendMode int

const (
	// Eager buffers standard sends up to Config.BufferSlots outstanding
	// messages per rank; beyond that the send degrades to rendezvous. This
	// is how most MPI implementations behave and what hides send–send
	// deadlocks (e.g. 126.lammps).
	Eager SendMode = iota
	// Rendezvous blocks every standard send until the matching receive is
	// posted — the strict interpretation under which unsafe programs
	// deadlock for real.
	Rendezvous
)

// Config parameterizes a World.
type Config struct {
	// Procs is the number of ranks.
	Procs int

	// SendMode selects standard-send buffering (default Eager).
	SendMode SendMode

	// BufferSlots bounds the outstanding eager sends per rank before
	// standard sends degrade to rendezvous. 0 means a generous default.
	BufferSlots int

	// BufferedSendCost, if positive, charges the sender a busy-wait of
	// BufferedSendCost × (outstanding buffered sends) spin iterations per
	// eager send — the "MPI internal handling" cost of large buffered-send
	// backlogs the paper observes for 137.lu.
	BufferedSendCost int

	// SsendEvery, if positive, gives every n-th standard send of a rank
	// synchronous-send semantics. This reproduces the wrapper experiment
	// the paper uses to explain the 137.lu performance gain.
	SsendEvery int

	// SynchronizingCollectives forces all collectives to act as barriers.
	// When false, rooted collectives let non-dependent participants leave
	// early (Figure 4's non-synchronizing reduce).
	SynchronizingCollectives bool

	// TrackCallSites records the application source location (file:line)
	// of every MPI call in its event, for MUST-style reports that point at
	// code. Costs one runtime.Caller lookup per call.
	TrackCallSites bool

	// RankCrashes and RankStalls are scheduled application-plane faults:
	// a crash kills the rank's goroutine immediately before its AtCall-th
	// MPI call (the rank emits a final RankDown event, its posted receives
	// are tombstoned, and the rest of the world keeps running); a stall
	// suspends the rank's progress without killing it. See package fault.
	RankCrashes []fault.RankCrash
	RankStalls  []fault.RankStall

	// Sink observes all MPI calls. Nil means no tool is attached.
	Sink event.Sink

	// HangTimeout aborts the run when no rank completes an operation for
	// this long while some rank is still blocked. 0 disables the watchdog
	// (a tool is expected to abort on detection instead).
	HangTimeout time.Duration
}

// ErrAborted is the cause reported by calls unblocked by World.Abort.
var ErrAborted = errors.New("mpisim: aborted")

// ErrHang is the abort cause used by the no-progress watchdog.
var ErrHang = errors.New("mpisim: no progress (hang watchdog)")

// AbortError is the panic value thrown inside rank goroutines when the run
// aborts while they are blocked in an MPI call. The rank runner recovers it.
type AbortError struct {
	Rank  int
	Cause error
}

func (e AbortError) Error() string {
	return fmt.Sprintf("rank %d aborted: %v", e.Rank, e.Cause)
}

// rankCrashError is the panic value that unwinds a single rank's goroutine
// when an injected RankCrash fires. Unlike AbortError it is rank-local:
// Run's runner recovers it and the rest of the world keeps running, exactly
// like an MPI job whose process died while its siblings continue.
type rankCrashError struct{ rank int }

// PanicError is the abort cause when a rank's program panicked. The runner
// contains the panic — it aborts this world instead of crashing the hosting
// process, so an embedder multiplexing many simulated jobs in one process
// (the mustserve analysis service) survives a buggy tenant program.
type PanicError struct {
	Rank  int
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("mpisim: rank %d program panicked: %v", e.Rank, e.Value)
}

// World is one simulated MPI job.
type World struct {
	cfg  Config
	sink event.Sink

	procs []*Proc

	comms   map[trace.CommID]*comm
	commMu  sync.Mutex
	nextCID int32

	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  error

	// progress counts completed blocking-call returns; the watchdog aborts
	// when it stalls.
	progress atomic.Uint64

	finished atomic.Int32 // ranks that returned from the program
}

// NewWorld creates a world with cfg.Procs ranks.
func NewWorld(cfg Config) *World {
	if cfg.Procs <= 0 {
		panic("mpisim: Procs must be positive")
	}
	if cfg.BufferSlots == 0 {
		cfg.BufferSlots = 1 << 16
	}
	sink := cfg.Sink
	if sink == nil {
		sink = event.Discard{}
	}
	w := &World{
		cfg:     cfg,
		sink:    sink,
		comms:   make(map[trace.CommID]*comm),
		abortCh: make(chan struct{}),
		nextCID: int32(trace.CommWorld) + 1,
	}
	group := make([]int, cfg.Procs)
	for i := range group {
		group[i] = i
	}
	w.comms[trace.CommWorld] = newComm(trace.CommWorld, group)
	w.procs = make([]*Proc, cfg.Procs)
	for i := range w.procs {
		w.procs[i] = newProc(w, i)
	}
	for _, rc := range cfg.RankCrashes {
		if rc.Rank < 0 || rc.Rank >= cfg.Procs {
			continue
		}
		at := rc.AtCall
		if at <= 0 {
			at = 1
		}
		w.procs[rc.Rank].crashCall = at
	}
	for _, rs := range cfg.RankStalls {
		if rs.Rank < 0 || rs.Rank >= cfg.Procs {
			continue
		}
		if rs.AtCall <= 0 {
			rs.AtCall = 1
		}
		s := rs
		w.procs[rs.Rank].stall = &s
	}
	return w
}

// NumProcs returns the number of ranks.
func (w *World) NumProcs() int { return w.cfg.Procs }

// Abort unblocks every waiting MPI call with the given cause. The first
// cause wins; later calls are no-ops.
func (w *World) Abort(cause error) {
	w.abortOnce.Do(func() {
		w.abortErr = cause
		close(w.abortCh)
	})
}

// AbortCause returns the abort cause, or nil if the world was not aborted.
func (w *World) AbortCause() error {
	select {
	case <-w.abortCh:
		return w.abortErr
	default:
		return nil
	}
}

// Program is the per-rank application function, the analogue of main() in an
// MPI program. It must call p.Finalize() before returning on the non-error
// path. MPI calls panic with AbortError when the world aborts; Run recovers
// that panic.
type Program func(p *Proc)

// Run executes the program on all ranks and blocks until every rank returned
// or the world aborted. It returns the abort cause, or nil for a clean run.
func (w *World) Run(prog Program) error {
	var wg sync.WaitGroup
	wg.Add(len(w.procs))
	for _, p := range w.procs {
		p := p
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(AbortError); ok {
						return // rank unwound due to abort
					}
					if _, ok := r.(rankCrashError); ok {
						return // injected rank crash; siblings keep running
					}
					// A genuine program bug: contain it to this world. The
					// first panicking rank's cause wins; siblings unwind via
					// the abort channel like any other aborted run.
					w.Abort(&PanicError{Rank: p.rank, Value: r, Stack: string(debug.Stack())})
				}
			}()
			prog(p)
			w.finished.Add(1)
			w.sink.Emit(event.Event{Type: event.Done, Proc: p.rank})
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	if w.cfg.HangTimeout > 0 {
		go w.watchdog(done)
	}
	<-done
	return w.AbortCause()
}

// watchdog aborts the world when the progress counter stalls for
// cfg.HangTimeout while ranks are still running.
func (w *World) watchdog(done <-chan struct{}) {
	tick := w.cfg.HangTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	last := w.progress.Load()
	lastChange := time.Now()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-w.abortCh:
			return
		case <-t.C:
			cur := w.progress.Load()
			if cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if int(w.finished.Load()) == len(w.procs) {
				return
			}
			if time.Since(lastChange) >= w.cfg.HangTimeout {
				w.Abort(ErrHang)
				return
			}
		}
	}
}

// comm looks up a communicator.
func (w *World) comm(id trace.CommID) *comm {
	w.commMu.Lock()
	c := w.comms[id]
	w.commMu.Unlock()
	if c == nil {
		panic(fmt.Sprintf("mpisim: unknown communicator %d", id))
	}
	return c
}

// newCommID allocates a fresh communicator ID.
func (w *World) newCommID() trace.CommID {
	return trace.CommID(atomic.AddInt32(&w.nextCID, 1))
}

// registerComm installs a communicator (called by collectives that create
// communicators; idempotent for the same ID).
func (w *World) registerComm(c *comm) {
	w.commMu.Lock()
	if _, ok := w.comms[c.id]; !ok {
		w.comms[c.id] = c
	}
	w.commMu.Unlock()
}

// noteProgress bumps the watchdog counter.
func (w *World) noteProgress() { w.progress.Add(1) }

// checkAbort panics with AbortError if the world has aborted.
func (w *World) checkAbort(rank int) {
	select {
	case <-w.abortCh:
		panic(AbortError{Rank: rank, Cause: w.abortErr})
	default:
	}
}
