package mpisim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/trace"
)

// Proc is the per-rank handle through which the application issues MPI
// calls. All methods must be called from the rank's own goroutine.
type Proc struct {
	w    *World
	rank int

	nextTS  int
	nextReq trace.ReqID
	reqs    map[trace.ReqID]*Request // made on first write, like collSeq
	collSeq map[trace.CommID]int
	sends   int // standard sends issued, for SsendEvery

	// eagerCounter tracks outstanding eager (buffered) envelopes of this
	// sender; receivers decrement it when they consume one.
	eagerCounter atomic.Int32

	// calls counts issued MPI calls.
	calls int

	// crashCall (1-based call index, 0 = none) and stall are the scheduled
	// application-plane faults; stalled latches after the stall ran once.
	crashCall int
	stall     *fault.RankStall
	stalled   bool

	mbox mailbox
}

func newProc(w *World, rank int) *Proc {
	return &Proc{
		w:    w,
		rank: rank,
	}
}

// Rank returns the world rank of this process.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.w.NumProcs() }

// World returns the owning world.
func (p *Proc) World() *World { return p.w }

// enter emits the Enter event for a call, assigning its timestamp and
// translating the peer to a world rank (the analogue of MUST's communicator
// tracking).
func (p *Proc) enter(op trace.Op) int {
	p.w.checkAbort(p.rank)
	p.maybeFault()
	op.Proc = p.rank
	op.TS = p.nextTS
	p.nextTS++
	if !op.Kind.IsRecv() {
		op.ActualSrc = trace.AnySource
	}
	op.PeerWorld = trace.AnySource
	if op.Kind.IsSend() || op.Kind.IsRecv() {
		op.SelfGroup = p.w.comm(op.Comm).groupRank(p.rank)
		if op.Peer != trace.AnySource {
			op.PeerWorld = p.w.comm(op.Comm).worldRank(op.Peer)
		}
	}
	if p.w.cfg.TrackCallSites {
		// Walk out of the runtime layers (enter → API method → mpi façade)
		// to the application frame.
		for skip := 2; skip < 8; skip++ {
			_, file, line, ok := runtime.Caller(skip)
			if !ok {
				break
			}
			// Walk past the runtime's own frames (this package and the mpi
			// façade) — but application test files still count as app code.
			if !strings.HasSuffix(file, "_test.go") &&
				(strings.Contains(file, "internal/mpisim") || strings.Contains(file, "/mpi/")) {
				continue
			}
			op.File = file
			op.Line = line
			break
		}
	}
	p.w.sink.Emit(event.Event{Type: event.Enter, Op: op})
	p.calls++
	return op.TS
}

// maybeFault executes a scheduled application-plane fault at a call
// boundary: faults fire immediately before the rank's AtCall-th MPI call,
// never inside a blocking call.
func (p *Proc) maybeFault() {
	call := p.calls + 1 // the call about to be issued, 1-based
	if p.crashCall > 0 && call >= p.crashCall {
		p.crash()
	}
	if p.stall != nil && !p.stalled && call >= p.stall.AtCall {
		p.stalled = true
		p.runStall()
	}
}

// crash kills the rank between two MPI calls: tombstone its posted
// receives (a dead rank consumes nothing further; envelopes it already
// sent stay matchable), emit the terminal RankDown event, and unwind the
// goroutine with a rank-local panic the runner recovers.
func (p *Proc) crash() {
	p.mbox.mu.Lock()
	p.mbox.posted = nil
	p.mbox.mu.Unlock()
	p.w.sink.Emit(event.Event{Type: event.RankDown, Proc: p.rank, TS: p.calls})
	panic(rankCrashError{rank: p.rank})
}

// runStall suspends the rank's progress without killing it: no MPI calls,
// no exit. For <= 0 stalls forever (until the world aborts); Busy burns
// CPU in a livelock spin instead of sleeping.
func (p *Proc) runStall() {
	s := p.stall
	forever := s.For <= 0
	deadline := time.Now().Add(s.For)
	for forever || time.Now().Before(deadline) {
		p.w.checkAbort(p.rank)
		if s.Busy {
			spin(4096)
		} else {
			select {
			case <-time.After(time.Millisecond):
			case <-p.w.abortCh:
				panic(AbortError{Rank: p.rank, Cause: p.w.abortErr})
			}
		}
	}
}

// status emits a wildcard-resolution Status event.
func (p *Proc) status(ts, src int) {
	p.w.sink.Emit(event.Event{Type: event.Status, Proc: p.rank, TS: ts, Src: src})
}

// commInfo emits a communicator-creation event (Comm_dup / Comm_split
// results; the new ID is only known after the collective completes).
func (p *Proc) commInfo(ts int, newComm trace.CommID) {
	p.w.sink.Emit(event.Event{Type: event.CommInfo, Proc: p.rank, TS: ts, Comm: newComm})
}

// allocReq registers a new request object.
func (p *Proc) allocReq(kind trace.Kind, wildcard bool) *Request {
	p.nextReq++
	r := &Request{
		id:       p.nextReq,
		kind:     kind,
		owner:    p,
		wildcard: wildcard,
		done:     make(chan struct{}),
	}
	if p.reqs == nil {
		p.reqs = make(map[trace.ReqID]*Request)
	}
	p.reqs[r.id] = r
	return r
}

// Finalize records MPI_Finalize. The program function should return right
// after calling it.
func (p *Proc) Finalize() {
	p.enter(trace.Op{Kind: trace.Finalize})
	p.w.noteProgress()
}

// Compute busy-spins for roughly d to model application computation between
// communication calls. It aborts promptly when the world aborts.
func (p *Proc) Compute(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		p.w.checkAbort(p.rank)
		spin(256)
	}
}

// spinSink keeps the busy-work below observable so the compiler cannot
// elide it; atomic because every rank goroutine spins concurrently.
var spinSink atomic.Uint64

// spin performs n iterations of busy work.
func spin(n int) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}

// waitAbortable blocks until ch closes or the world aborts.
func (p *Proc) waitAbortable(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-p.w.abortCh:
		panic(AbortError{Rank: p.rank, Cause: p.w.abortErr})
	}
}
