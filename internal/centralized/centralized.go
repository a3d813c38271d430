// Package centralized implements the prior, centralized runtime deadlock
// detection the paper compares against in Figure 9 (its Figure 1(a)
// architecture): a single tool process receives the event streams of all
// application ranks, performs point-to-point and collective matching
// centrally, and executes the wait-state transition system by rescanning
// the processes for applicable rules after each event — the per-operation
// cost that, together with the single-consumer incast, limits the approach
// to a few hundred processes.
package centralized

import (
	"context"
	"errors"
	"io"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/engine"
	"dwst/internal/event"
	"dwst/internal/mpisim"
	"dwst/internal/p2pmatch"
	"dwst/internal/report"
	"dwst/internal/trace"
	"dwst/internal/waitstate"
)

// ErrDeadlockDetected is the abort cause used when the tool found a
// deadlock.
var ErrDeadlockDetected = errors.New("centralized tool: deadlock detected")

// Config parameterizes a centralized-tool run.
type Config struct {
	// Ctx, when non-nil, cancels the run from outside: on Done the world
	// aborts with context.Cause(Ctx) — the same path deadlock aborts take.
	Ctx      context.Context
	Procs    int
	Timeout  time.Duration // event-quiescence before graph detection
	EventBuf int           // capacity of the single tool-process event queue

	// Simulator options.
	SendMode                 mpisim.SendMode
	BufferSlots              int
	BufferedSendCost         int
	SsendEvery               int
	SynchronizingCollectives bool
	TrackCallSites           bool
}

// Result summarizes a centralized run.
type Result struct {
	AppErr         error
	Deadlock       bool
	Deadlocked     []int
	Blocked        []int
	Cycle          []int
	Groups         [][]int
	Unexpected     int
	Detections     int
	Elapsed        time.Duration
	HTML, DOT      report.Artifact // rendered on request
	TraceOps       int             // total operations retained (centralized keeps them all)
	CallMismatches []string
	LostMessages   int
	// Conditions describes each blocked rank's wait-for condition.
	Conditions map[int]string
}

// tool is the single tool process's state.
type tool struct {
	p     int
	mt    *trace.MatchedTrace
	sys   *waitstate.System
	l     waitstate.State
	match *p2pmatch.Engine
	coll  *collmatch.Root

	collRefs map[collKey][]trace.Ref
	collSeq  map[rankComm]int
	opWave   map[trace.Ref]int
	seen     map[trace.CommID]bool
	synced   map[trace.CommID]bool

	mismatches []collmatch.Mismatch
}

// recordMismatch stores a collective call mismatch (once per wave).
func (t *tool) recordMismatch(m collmatch.Mismatch) {
	for _, have := range t.mismatches {
		if have.Comm == m.Comm && have.Wave == m.Wave {
			return
		}
	}
	t.mismatches = append(t.mismatches, m)
}

// lostMessages counts sends that never matched a receive.
func (t *tool) lostMessages() int {
	total := 0
	for i := 0; i < t.p; i++ {
		total += t.match.PendingSends(i)
	}
	return total
}

type collKey struct {
	comm trace.CommID
	wave int
}

type rankComm struct {
	rank int
	comm trace.CommID
}

func newTool(p int) *tool {
	mt := trace.NewMatchedTrace(p)
	t := &tool{
		p:        p,
		mt:       mt,
		sys:      waitstate.New(mt),
		l:        make(waitstate.State, p),
		match:    p2pmatch.NewEngine(),
		coll:     collmatch.NewRoot(p, 0),
		collRefs: make(map[collKey][]trace.Ref),
		collSeq:  make(map[rankComm]int),
		opWave:   make(map[trace.Ref]int),
		seen:     make(map[trace.CommID]bool),
		synced:   make(map[trace.CommID]bool),
	}
	return t
}

// process consumes one application event; afterwards it rescans all
// processes for applicable transitions (the centralized cost model).
func (t *tool) process(ev event.Event) {
	switch ev.Type {
	case event.Enter:
		t.enter(ev.Op)
	case event.Status:
		t.applyMatches(t.match.Resolve(ev.Proc, ev.TS, ev.Src))
	case event.CommInfo:
		ref := trace.Ref{Proc: ev.Proc, TS: ev.TS}
		op := t.mt.Op(ref)
		for _, a := range t.coll.OnMember(collmatch.Member{
			NewComm: ev.Comm, Rank: ev.Proc,
			Parent: op.Comm, ParentWave: t.opWave[ref],
		}) {
			t.completeColl(a)
		}
	case event.Done:
		// Rank returned; nothing to track centrally.
		return
	case event.Heartbeat, event.RankDown:
		// Distributed-tool bookkeeping; replayed traces may carry them but
		// the centralized baseline has no watchdog or failure model.
		return
	}
	t.rescan()
}

func (t *tool) enter(op trace.Op) {
	ref := t.mt.Append(op.Proc, op)
	kind := op.Kind
	switch {
	case kind.IsSend():
		t.applyMatches(t.match.AddSend(p2pmatch.SendInfo{
			Proc: op.Proc, TS: op.TS, Src: op.SelfGroup,
			Dest: op.PeerWorld, Tag: op.Tag, Comm: op.Comm, Kind: kind,
		}))
	case kind == trace.Iprobe:
		// Non-blocking probe: no matching constraints.
	case kind.IsRecv():
		t.applyMatches(t.match.AddRecv(p2pmatch.RecvInfo{
			Proc: op.Proc, TS: op.TS, Src: op.Peer, Tag: op.Tag,
			Comm: op.Comm, Probe: kind.IsProbe(),
		}))
	case kind.IsCollective():
		rc := rankComm{op.Proc, op.Comm}
		wave := t.collSeq[rc]
		t.collSeq[rc] = wave + 1
		t.opWave[ref] = wave
		k := collKey{op.Comm, wave}
		t.collRefs[k] = append(t.collRefs[k], ref)
		t.seen[op.Comm] = true
		acks, mism := t.coll.OnReady(collmatch.Ready{
			Comm: op.Comm, Wave: wave, Count: 1, Kind: kind, Root: op.Peer,
			Rank: op.Proc,
		})
		if mism != nil {
			t.recordMismatch(*mism)
		}
		for _, a := range acks {
			t.completeColl(a)
		}
	}
}

// completeColl records a complete collective match set.
func (t *tool) completeColl(a collmatch.Ack) {
	k := collKey{a.Comm, a.Wave}
	refs := t.collRefs[k]
	if len(refs) > 0 {
		t.mt.AddColl(a.Comm, refs)
		delete(t.collRefs, k)
	}
}

func (t *tool) applyMatches(ms []p2pmatch.Match) {
	for _, m := range ms {
		sref := trace.Ref{Proc: m.Send.Proc, TS: m.Send.TS}
		rref := trace.Ref{Proc: m.Recv.Proc, TS: m.Recv.TS}
		if m.Probe {
			t.mt.MatchProbe(rref, sref)
		} else {
			t.mt.MatchP2P(sref, rref)
		}
	}
}

// rescan applies transitions by scanning every process after each event —
// the Umpire-style implicit search the paper's formalization avoids in the
// distributed implementation.
func (t *tool) rescan() {
	for progress := true; progress; {
		progress = false
		for i := 0; i < t.p; i++ {
			for t.sys.Step(t.l, i) != waitstate.RuleNone {
				progress = true
			}
		}
	}
}

// syncGroups pushes sealed communicator groups into the matched trace so
// wait-for computation can expand wildcard targets.
func (t *tool) syncGroups() {
	for c := range t.seen {
		if t.synced[c] {
			continue
		}
		if g := t.coll.Group(c); g != nil {
			t.mt.SetGroup(c, g)
			t.synced[c] = true
		}
	}
}

// detectDeadlock runs the graph-based detection on the current state: blocked
// ranks and their wait-for conditions, and the finished ranks, form the
// snapshot engine.Analysis decides, as at the distributed tool's root. The
// result always carries Blocked and Unexpected; the deadlock, its cycle,
// groups, conditions and outputs when there is one.
func (t *tool) detectDeadlock() *Result {
	t.syncGroups()
	res := &Result{Unexpected: len(t.sys.UnexpectedMatches(t.l))}
	snap := &engine.Snapshot{Procs: t.p, Blocked: make(map[int]engine.Wait)}
	entries := make(map[int]waitstate.WaitInfo)
	for i := 0; i < t.p; i++ {
		switch {
		case t.sys.Blocked(t.l, i):
			w := t.sys.WaitFor(t.l, i)
			entries[i] = w
			snap.Blocked[i] = engine.Wait{Sem: w.Semantics, Targets: w.Targets, Desc: w.Desc}
			res.Blocked = append(res.Blocked, i)
		case t.sys.Done(t.l, i):
			snap.Finished = append(snap.Finished, i)
		}
	}
	an := engine.NewAnalysis(snap)
	dead := an.Deadlocked()
	if len(dead) == 0 {
		return res
	}
	res.Deadlock = true
	res.Deadlocked = dead
	res.Cycle = an.Cycle()
	res.Groups = an.Groups()
	res.Conditions = make(map[int]string, len(entries))
	for r, w := range entries {
		res.Conditions[r] = w.Desc
	}
	page := report.DataFromWaitInfo(t.p, dead, res.Cycle, entries, an.Arcs)
	res.HTML = report.Render(func(w io.Writer) error { return report.WriteHTML(w, page) })
	res.DOT = report.Render(func(w io.Writer) error { return snap.DOT(w, dead) })
	return res
}

// Run executes the program under the centralized tool.
func Run(cfg Config, prog mpisim.Program) *Result {
	if cfg.Timeout == 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
	if cfg.EventBuf == 0 {
		cfg.EventBuf = 1024
	}

	events := make(chan event.Event, cfg.EventBuf)
	stop := make(chan struct{})
	world := mpisim.NewWorld(mpisim.Config{
		Procs:                    cfg.Procs,
		SendMode:                 cfg.SendMode,
		BufferSlots:              cfg.BufferSlots,
		BufferedSendCost:         cfg.BufferedSendCost,
		SsendEvery:               cfg.SsendEvery,
		SynchronizingCollectives: cfg.SynchronizingCollectives,
		TrackCallSites:           cfg.TrackCallSites,
		Sink: event.Func(func(ev event.Event) {
			select {
			case events <- ev:
			case <-stop:
			}
		}),
	})

	if cfg.Ctx != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-cfg.Ctx.Done():
				world.Abort(context.Cause(cfg.Ctx))
			case <-stopWatch:
			}
		}()
	}
	start := time.Now()
	appDone := make(chan error, 1)
	go func() { appDone <- world.Run(prog) }()

	t := newTool(cfg.Procs)
	finished := false
	var appErr error
	// res becomes the first detection that found a deadlock.
	res := &Result{}
	detections := 0
	runDetection := func() bool {
		detections++
		if r := t.detectDeadlock(); r.Deadlock {
			res = r
		}
		return res.Deadlock
	}

	for {
		if finished {
			// Drain remaining buffered events, then run the final detection
			// (potential deadlocks, Sec. 3.3).
			draining := true
			for draining {
				select {
				case ev := <-events:
					t.process(ev)
				default:
					draining = false
				}
			}
			elapsed := time.Since(start)
			if !res.Deadlock && (cfg.Ctx == nil || cfg.Ctx.Err() == nil) {
				// Canceled runs skip the final detection: ranks were torn
				// out mid-protocol, so a potential-deadlock verdict computed
				// from the truncated trace would be misleading.
				runDetection()
			}
			res.Detections = detections
			res.Elapsed = elapsed
			res.AppErr = appErr
			res.TraceOps = traceOps(t.mt)
			res.LostMessages = t.lostMessages()
			for _, m := range t.mismatches {
				res.CallMismatches = append(res.CallMismatches, m.String())
			}
			close(stop)
			return res
		}
		select {
		case ev := <-events:
			t.process(ev)
		case err := <-appDone:
			appErr = err
			finished = true
		case <-time.After(cfg.Timeout):
			if !res.Deadlock && runDetection() {
				world.Abort(ErrDeadlockDetected)
			}
		}
	}
}

func traceOps(mt *trace.MatchedTrace) int {
	n := 0
	for i := 0; i < mt.NumProcs(); i++ {
		n += mt.Len(i)
	}
	return n
}
