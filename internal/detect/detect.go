// Package detect implements the root-side deadlock detection of Section 5:
// the timeout-triggered consistent-state protocol, gathering of wait-for
// information, construction of the AND⊕OR wait-for graph, the deadlock
// criterion, and the generation of the user-facing outputs — with the
// per-phase timings the paper reports in Figures 10(b) and 11(b)
// (Synchronization, WFG gather, Graph build, Deadlock check, Output
// generation).
package detect

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/dws"
	"dwst/internal/engine"
	"dwst/internal/report"
	"dwst/internal/trace"
	"dwst/internal/waitstate"
)

// Timings is the per-phase breakdown of one detection run.
type Timings struct {
	Synchronization  time.Duration // consistent-state protocol (Fig. 8)
	WFGGather        time.Duration // receiving wait-for info of all processes
	GraphBuild       time.Duration // building the wait-for graph
	DeadlockCheck    time.Duration // the graph search (release fixpoint)
	OutputGeneration time.Duration // summary + class graph (page and full graph render on request)
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.Synchronization + t.WFGGather + t.GraphBuild + t.DeadlockCheck + t.OutputGeneration
}

// Verdict classifies the outcome of one detection run. It is an alias of
// engine.Verdict: the engine package owns the classification so every
// detection engine shares it; detect re-exports it for compatibility.
type Verdict = engine.Verdict

const (
	// VerdictNone: no deadlock and no stalled rank was found.
	VerdictNone = engine.VerdictNone
	// VerdictDeadlock is a true communication deadlock: a cycle/knot of
	// ranks waiting on each other, all of them alive.
	VerdictDeadlock = engine.VerdictDeadlock
	// VerdictDeadlockByFailure is a deadlock whose residue contains
	// crashed ranks: the blocked ranks wait (transitively) on processes
	// that died, not on each other's communication choices.
	VerdictDeadlockByFailure = engine.VerdictDeadlockByFailure
	// VerdictStalled: no wait-state deadlock, but the progress watchdog
	// flagged ranks that are alive yet issue no MPI calls past the quiet
	// period — a hang class the pure wait-state analysis cannot see.
	VerdictStalled = engine.VerdictStalled
)

// Result is the outcome of one detection run.
type Result struct {
	// Epoch is the snapshot attempt this result was computed from.
	Epoch int
	// Partial marks a degraded result: one or more first-layer tool nodes
	// crashed, so the wait state of their ranks (UnknownRanks) is unknown.
	// Unknown ranks are modeled as permanently blocked (an OR-wait over
	// the empty set), the conservative choice: processes waiting on them
	// are reported deadlocked rather than silently released.
	Partial bool
	// UnknownRanks lists the ranks whose wait state is unknown (ascending).
	UnknownRanks []int
	// Verdict classifies the result (true deadlock vs deadlock-by-failure
	// vs stalled vs none).
	Verdict Verdict
	// EngineVerdicts maps each oracle engine that ran on this snapshot to
	// its verdict string (or its skip reason: "inapplicable",
	// "inconclusive"). Populated only in differential mode.
	EngineVerdicts map[string]string
	// EngineDeviations lists disagreements between the analysis, the
	// oracle engines and the WFG reference on this snapshot (differential
	// mode only; empty means all applicable engines agreed).
	EngineDeviations []string
	// DeadRanks lists the application ranks that crashed (ascending), and
	// DeadLastCalls maps each to the number of MPI calls it completed.
	DeadRanks     []int
	DeadLastCalls map[int]int
	// FailureBlocked lists the live ranks transitively blocked on a
	// crashed rank (subset of Deadlocked, ascending).
	FailureBlocked []int
	// StalledRanks lists the ranks the progress watchdog flagged
	// (ascending). Stalled ranks may still resume, so they never enter
	// the wait-for graph.
	StalledRanks []int
	// Deadlock reports whether a deadlock (cycle/knot residue) was found.
	Deadlock bool
	// Deadlocked lists the deadlocked ranks (ascending).
	Deadlocked []int
	// Blocked lists all blocked ranks, including non-deadlocked ones.
	Blocked []int
	// Cycle is one dependency cycle within the deadlocked set.
	Cycle []int
	// Groups decomposes the deadlocked set into independent clusters
	// (strongly connected components of the restricted wait-for graph).
	Groups [][]int
	// Entries are the blocked ranks' wait conditions by rank.
	Entries map[int]dws.WaitEntry
	// UnexpectedMatches lists Section 3.3 situations found in the state.
	UnexpectedMatches []report.UnexpectedMatch
	// Arcs is the wait-for graph size (p² for the wildcard stress case).
	Arcs int
	// LostMessages counts sends that never matched a receive, summed over
	// all nodes (meaningful for detections after the application finished).
	LostMessages int
	// HTML and DOT are the report page and the full wait-for graph of the
	// deadlocked ranks, rendered when asked (empty without a deadlock).
	HTML report.Artifact
	DOT  report.Artifact
	// SimplifiedDOT is the class-compressed wait-for graph (the paper's
	// Sec. 6 future work), and Summary its one-line description.
	SimplifiedDOT string
	Summary       string
	// Timings is the phase breakdown.
	Timings Timings
}

// TriggerDetection is the control message the driver injects into the root
// when the event-quiescence timeout fires.
type TriggerDetection struct{}

// AbortDetection is the control message the driver injects when an
// in-flight detection missed its deadline (snapshot messages lost beyond
// what retransmission healed): the root returns to idle and the driver
// broadcasts the matching dws.AbortSnapshot before retrying with a fresh
// epoch.
type AbortDetection struct{}

// NodeDown is the control message the driver injects after the TBON
// supervisor declared a tool node dead. Ranks is non-nil for first-layer
// nodes: the application ranks whose wait state is now unknown.
// Recovered means the node was respawned and rebuilt exactly (journal
// replay): no state was lost and the ranks stay known — the root must NOT
// mark the node dead, only abort a snapshot epoch the dead incarnation may
// have left unacknowledged.
type NodeDown struct {
	Node      int
	Ranks     []int
	Recovered bool
}

// Root is the root node's tool state: collective matching completion, the
// communicator registry, and the detection state machine. All methods run
// on the root's TBON goroutine.
type Root struct {
	p          int
	firstLayer int
	coll       *collmatch.Root

	phase       phase
	epoch       int // snapshot attempt counter (first attempt = 1)
	began       time.Time
	acked       map[int]bool
	acksDone    time.Time
	reports     map[int]dws.WaitReport
	gatherStart time.Time

	// deadNodes maps crashed first-layer nodes to their hosted ranks;
	// detection proceeds without them and flags results as partial.
	deadNodes map[int][]int

	// deadRanks maps crashed application ranks to their last completed
	// call count (from RankDown messages).
	deadRanks map[int]int

	// Results delivers one Result per detection run (including runs that
	// found no deadlock) to the driver.
	Results chan *Result

	// differential runs the oracle engines beside the analysis and
	// cross-checks every verdict.
	differential bool
	// extraEngines are appended to the differential engine list; the test
	// hook that lets a deliberately broken engine prove the oracle bites.
	extraEngines []engine.Engine

	// droppedResults counts completed detections the driver failed to
	// consume within the delivery timeout — should always be zero; counted
	// instead of silently dropped.
	droppedResults int

	mismatches []collmatch.Mismatch
}

type phase int

const (
	idle phase = iota
	awaitingAcks
	awaitingReports
)

// NewRoot creates the root state for p ranks and the given number of
// first-layer nodes.
func NewRoot(p, firstLayer int) *Root {
	return &Root{
		p:          p,
		firstLayer: firstLayer,
		coll:       collmatch.NewRoot(p, firstLayer),
		deadNodes:  make(map[int][]int),
		deadRanks:  make(map[int]int),
		Results:    make(chan *Result, 4),
	}
}

// OnRankDown records the death of an application rank. Returns true the
// first time the rank is recorded, so the driver rebroadcasts the message
// down once (duplicates from crash replay are absorbed here).
func (r *Root) OnRankDown(m dws.RankDown) bool {
	if _, ok := r.deadRanks[m.Rank]; ok {
		return false
	}
	r.deadRanks[m.Rank] = m.LastCall
	return true
}

// DeadRanks returns the crashed application ranks recorded so far
// (ascending). Only read after the tool stopped.
func (r *Root) DeadRanks() []int {
	out := make([]int, 0, len(r.deadRanks))
	for rk := range r.deadRanks {
		out = append(out, rk)
	}
	sort.Ints(out)
	return out
}

// Group exposes the communicator registry.
func (r *Root) Group(c trace.CommID) []int { return r.coll.Group(c) }

// OnReady processes an aggregated collectiveReady and returns the Acks to
// broadcast. Call-signature conflicts are recorded as mismatches.
func (r *Root) OnReady(m collmatch.Ready) []collmatch.Ack {
	acks, mism := r.coll.OnReady(m)
	if mism != nil {
		r.OnMismatch(*mism)
	}
	return acks
}

// OnMember processes a communicator-registry report.
func (r *Root) OnMember(m collmatch.Member) []collmatch.Ack { return r.coll.OnMember(m) }

// OnMismatch records a collective call mismatch (MUST's collective
// verification check). Duplicates for the same wave are collapsed.
func (r *Root) OnMismatch(m collmatch.Mismatch) {
	for _, have := range r.mismatches {
		if have.Comm == m.Comm && have.Wave == m.Wave {
			return
		}
	}
	r.mismatches = append(r.mismatches, m)
}

// Mismatches returns the recorded collective call mismatches. Only read
// after the tool stopped (the root goroutine owns the slice while running).
func (r *Root) Mismatches() []collmatch.Mismatch { return r.mismatches }

// Start begins a detection run under a fresh snapshot epoch; returns false
// if one is already running.
func (r *Root) Start() bool {
	if r.phase != idle {
		return false
	}
	r.phase = awaitingAcks
	r.epoch++
	r.began = time.Now()
	r.acked = make(map[int]bool, r.firstLayer)
	r.reports = make(map[int]dws.WaitReport, r.firstLayer)
	return true
}

// Epoch returns the current snapshot epoch (the one Start just opened).
func (r *Root) Epoch() int { return r.epoch }

// Abort cancels an in-flight detection (deadline missed) and returns the
// aborted epoch so the driver can broadcast the matching dws.AbortSnapshot;
// it returns 0 when no detection was running.
func (r *Root) Abort() int {
	if r.phase == idle {
		return 0
	}
	r.phase = idle
	return r.epoch
}

// OnAck processes an ackConsistentState; returns true when every live
// first-layer node acknowledged the current epoch (the driver then
// broadcasts RequestWaits). Acks of stale epochs are discarded.
func (r *Root) OnAck(a dws.AckConsistentState) bool {
	if r.phase != awaitingAcks || a.Epoch != r.epoch {
		return false
	}
	r.acked[a.Node] = true
	if !r.acksComplete() {
		return false
	}
	r.phase = awaitingReports
	r.acksDone = time.Now()
	r.gatherStart = r.acksDone
	return true
}

func (r *Root) acksComplete() bool {
	for i := 0; i < r.firstLayer; i++ {
		if _, dead := r.deadNodes[i]; dead {
			continue
		}
		if !r.acked[i] {
			return false
		}
	}
	return true
}

func (r *Root) reportsComplete() bool {
	for i := 0; i < r.firstLayer; i++ {
		if _, dead := r.deadNodes[i]; dead {
			continue
		}
		if _, ok := r.reports[i]; !ok {
			return false
		}
	}
	return true
}

// OnWaitReport collects one node's wait report; when every live node
// reported it runs graph detection and returns the Result (nil otherwise).
// Reports of stale epochs are discarded.
func (r *Root) OnWaitReport(rep dws.WaitReport) *Result {
	if r.phase != awaitingReports || rep.Epoch != r.epoch {
		return nil
	}
	r.reports[rep.Node] = rep
	if !r.reportsComplete() {
		return nil
	}
	return r.finish()
}

// OnNodeDown records a crashed first-layer node: detection proceeds
// without it and results become partial. When the crash completes the
// current phase (the dead node was the last missing acker or reporter),
// the return value tells the driver what to do next: ackDone means
// broadcast RequestWaits for the current epoch.
func (r *Root) OnNodeDown(node int, ranks []int) (ackDone bool) {
	if _, seen := r.deadNodes[node]; seen {
		return false
	}
	r.deadNodes[node] = append([]int(nil), ranks...)
	switch r.phase {
	case awaitingAcks:
		if r.acksComplete() {
			r.phase = awaitingReports
			r.acksDone = time.Now()
			r.gatherStart = r.acksDone
			return true
		}
	case awaitingReports:
		if r.reportsComplete() {
			r.finish()
		}
	}
	return false
}

// SetDifferential makes every detection additionally run the oracle
// engines and cross-check their verdicts with the analysis. Call before the
// tool starts (not concurrency-safe afterwards).
func (r *Root) SetDifferential(on bool) { r.differential = on }

// AddEngine registers an additional snapshot engine for differential
// runs. This is the seeded-deviation test hook: injecting a deliberately
// wrong engine must make the differential oracle report a deviation.
func (r *Root) AddEngine(e engine.Engine) {
	r.extraEngines = append(r.extraEngines, e)
}

// DroppedResults returns the number of completed detections the driver
// failed to consume (see finish). Only read after the tool stopped.
func (r *Root) DroppedResults() int { return r.droppedResults }

// resultDeliveryTimeout bounds how long finish blocks on a slow driver
// before counting the result as dropped. Generous: the driver's main loop
// services Results continuously, so hitting this means the driver is
// wedged, and the root goroutine must not wedge with it. A variable so
// tests can exercise the drop path without the full wait.
var resultDeliveryTimeout = 5 * time.Second

// finish runs the analysis and publishes the result. Delivery is
// reliable: a completed detection is a fact the driver must observe, so
// finish blocks (bounded) rather than silently dropping the result when
// the channel is momentarily full; an expired wait is counted in
// droppedResults instead of vanishing.
func (r *Root) finish() *Result {
	res := r.analyze()
	r.phase = idle
	select {
	case r.Results <- res:
		return res
	default:
	}
	t := time.NewTimer(resultDeliveryTimeout)
	defer t.Stop()
	select {
	case r.Results <- res:
	case <-t.C:
		r.droppedResults++
	}
	return res
}

// wave names one collective wave; sets indexes the rank sets a detection's
// waits share, so that p waits on one communicator reference one set.
type wave struct {
	comm trace.CommID
	w    int
}

type sets struct {
	r      *Root
	inWave map[wave]map[int]bool
	comms  map[trace.CommID]*engine.RankSet
	waves  map[wave]*engine.RankSet
	unions map[string]*engine.RankSet
}

// comm is "every process of communicator c" (a wildcard receive on c).
func (s *sets) comm(c trace.CommID) *engine.RankSet {
	rs := s.comms[c]
	if rs == nil {
		rs = &engine.RankSet{Members: s.r.groupOrWorld(c)}
		s.comms[c] = rs
	}
	return rs
}

// missing is "every process of the wave's communicator not blocked in the
// wave" (what a participant of a collective waits for).
func (s *sets) missing(k wave) *engine.RankSet {
	rs := s.waves[k]
	if rs == nil {
		rs = &engine.RankSet{}
		for _, m := range s.r.groupOrWorld(k.comm) {
			if !s.inWave[k][m] {
				rs.Members = append(rs.Members, m)
			}
		}
		s.waves[k] = rs
	}
	return rs
}

// of returns the one set an entry's set-valued wait conditions add up to:
// nil without any, the shared set itself for one (every case the paper
// has), their interned union for several (a Waitany over wildcard receives
// on different communicators).
func (s *sets) of(e dws.WaitEntry) *engine.RankSet {
	switch {
	case e.IsColl && len(e.WildComms) == 0:
		return s.missing(wave{e.CollComm, e.CollWave})
	case !e.IsColl && len(e.WildComms) == 0:
		return nil
	case !e.IsColl && len(e.WildComms) == 1:
		return s.comm(e.WildComms[0])
	}
	key := fmt.Sprint(e.WildComms, e.IsColl, e.CollComm, e.CollWave)
	u := s.unions[key]
	if u != nil {
		return u
	}
	u = &engine.RankSet{}
	seen := map[int]bool{}
	add := func(rs *engine.RankSet) {
		for _, m := range rs.Members {
			if !seen[m] {
				seen[m] = true
				u.Members = append(u.Members, m)
			}
		}
	}
	for _, wc := range e.WildComms {
		add(s.comm(wc))
	}
	if e.IsColl {
		add(s.missing(wave{e.CollComm, e.CollWave}))
	}
	s.unions[key] = u
	return u
}

// analyze turns the gathered reports into the engine-neutral snapshot in
// its grouped form — conditions on a whole communicator or wave stay
// references to one shared rank set, never p explicit targets per rank —
// and checks it for deadlock. Nothing here is proportional to the p² arcs
// of a wildcard deadlock; the arc-by-arc graph is built only in a
// differential run, as the oracles' input and the reference they are
// compared with.
func (r *Root) analyze() *Result {
	res := &Result{Entries: make(map[int]dws.WaitEntry), Epoch: r.epoch}
	res.Timings.Synchronization = r.acksDone.Sub(r.began)
	res.Timings.WFGGather = time.Since(r.gatherStart)

	// Degraded mode: ranks hosted by crashed first-layer nodes have an
	// unknown wait state. Their report (if any arrived before the crash)
	// is discarded as untrustworthy.
	for _, ranks := range r.deadNodes {
		res.UnknownRanks = append(res.UnknownRanks, ranks...)
	}
	sort.Ints(res.UnknownRanks)
	res.Partial = len(res.UnknownRanks) > 0

	buildStart := time.Now()
	shared := &sets{
		r:      r,
		inWave: map[wave]map[int]bool{},
		comms:  map[trace.CommID]*engine.RankSet{},
		waves:  map[wave]*engine.RankSet{},
		unions: map[string]*engine.RankSet{},
	}
	var all []dws.WaitEntry
	var finished []int
	crashedEntries := map[int]dws.WaitEntry{}
	stalledEntries := map[int]dws.WaitEntry{}
	for node, rep := range r.reports {
		if _, dead := r.deadNodes[node]; dead {
			continue
		}
		res.LostMessages += rep.UnmatchedSends
		for _, e := range rep.Entries {
			if e.State == dws.Finished {
				finished = append(finished, e.Rank)
				continue
			}
			if e.State == dws.Crashed {
				crashedEntries[e.Rank] = e
				continue
			}
			if e.State == dws.Stalled {
				stalledEntries[e.Rank] = e
				continue
			}
			if e.State != dws.Blocked {
				continue
			}
			all = append(all, e)
			if e.IsColl {
				k := wave{e.CollComm, e.CollWave}
				if shared.inWave[k] == nil {
					shared.inWave[k] = map[int]bool{}
				}
				shared.inWave[k][e.Rank] = true
			}
		}
	}

	// The snapshot is the engine-neutral wait-state view every detection
	// engine analyzes — not a graph, so independent engines cannot inherit a
	// graph-build bug from the reference.
	snap := &engine.Snapshot{
		Procs:    r.p,
		Blocked:  make(map[int]engine.Wait, len(all)),
		Finished: finished,
	}
	for _, e := range all {
		res.Entries[e.Rank] = e
		res.Blocked = append(res.Blocked, e.Rank)
		targets := e.Targets
		for _, rs := range e.ResolvedSrcs {
			grp := r.groupOrWorld(rs.Comm)
			if rs.Src < 0 || rs.Src >= len(grp) {
				continue
			}
			if m := grp[rs.Src]; m != e.Rank && !containsRank(targets, m) {
				// Copy on first append: the entry's own list stays as reported.
				targets = append(targets[:len(targets):len(targets)], m)
			}
		}
		sem := waitstate.AndWait
		if e.Sem == dws.SemOr {
			sem = waitstate.OrWait
		}
		snap.Blocked[e.Rank] = engine.Wait{Sem: sem, Targets: targets, Desc: e.Desc, Others: shared.of(e)}
	}
	// Crashed application ranks enter the graph as permanently blocked
	// sinks with a *known* cause (unlike Unknown): an AND-wait on the rank
	// itself is never satisfiable, so the dead rank stays in the deadlock
	// residue and everything transitively waiting on it with it. The
	// root's own RankDown record is merged with report entries, so the
	// death survives even when the hosting tool node died afterwards.
	dead := make(map[int]int, len(r.deadRanks))
	for rk, lc := range r.deadRanks {
		dead[rk] = lc
	}
	for rk, e := range crashedEntries {
		if _, ok := dead[rk]; !ok {
			dead[rk] = e.LastCall
		}
	}
	res.DeadRanks = make([]int, 0, len(dead))
	for rk := range dead {
		res.DeadRanks = append(res.DeadRanks, rk)
	}
	sort.Ints(res.DeadRanks)
	if len(dead) > 0 {
		res.DeadLastCalls = dead
	}
	for _, rk := range res.DeadRanks {
		e, ok := crashedEntries[rk]
		if !ok {
			e = dws.WaitEntry{
				Rank: rk, State: dws.Crashed, LastCall: dead[rk],
				Desc: fmt.Sprintf("rank %d crashed after %d MPI calls", rk, dead[rk]),
			}
		}
		res.Entries[rk] = e
		res.Blocked = append(res.Blocked, rk)
		snap.Blocked[rk] = engine.Wait{Sem: waitstate.AndWait, Targets: []int{rk}, Desc: e.Desc}
		snap.Dead = append(snap.Dead, rk)
	}
	// Stalled ranks are reported but never enter the graph: they may
	// resume, so treating them as blocked could fabricate a deadlock.
	for rk := range stalledEntries {
		res.StalledRanks = append(res.StalledRanks, rk)
		res.Entries[rk] = stalledEntries[rk]
	}
	sort.Ints(res.StalledRanks)
	snap.Stalled = res.StalledRanks
	// Unknown ranks enter the graph as permanently blocked sinks: an
	// OR-wait over the empty set is never satisfiable, so they are never
	// released and anything waiting on them stays deadlocked — the
	// conservative reading of "we cannot observe this rank anymore". (An
	// AND-wait over the empty set would be the opposite: released
	// immediately.) Ranks already modeled as Crashed keep that richer
	// classification.
	for _, u := range res.UnknownRanks {
		if _, isDead := dead[u]; isDead {
			continue
		}
		e := dws.WaitEntry{
			Rank: u, State: dws.Unknown, Sem: dws.SemOr,
			Desc: "wait state unknown (hosting tool node crashed)",
		}
		res.Entries[u] = e
		res.Blocked = append(res.Blocked, u)
		snap.Blocked[u] = engine.Wait{Sem: waitstate.OrWait, Desc: e.Desc}
		snap.Unknown = append(snap.Unknown, u)
	}
	sort.Ints(res.Blocked)
	an := engine.NewAnalysis(snap)
	res.Arcs = an.Arcs
	res.Timings.GraphBuild = time.Since(buildStart)

	checkStart := time.Now()
	// The release fixpoint on the grouped form gives the verdict; cycle,
	// groups and the class graph below come from the same analysis.
	res.Deadlocked = an.Deadlocked()
	res.Verdict = engine.Classify(snap, res.Deadlocked)
	res.Deadlock = len(res.Deadlocked) > 0
	if r.differential {
		// The oracles analyze the expanded snapshot, and the arc-by-arc
		// graph on it is the reference — for them and for the grouped
		// analysis itself.
		flat := snap.Flat()
		ref := engine.Finding{Engine: "wfg"}
		ref.Verdict, ref.Deadlocked, _ = engine.WFG{}.Analyze(engine.Input{Snapshot: flat})
		oracles := append([]engine.Engine{engine.CMH{}, engine.TwoCycle{}}, r.extraEngines...)
		findings := engine.RunAll(oracles, engine.Input{Snapshot: flat})
		grouped := engine.Finding{Engine: "wfg-grouped", Verdict: res.Verdict, Deadlocked: res.Deadlocked}
		res.EngineDeviations = append(engine.Deviations(ref, nil, []engine.Finding{grouped}),
			engine.Deviations(ref, oracles, findings)...)
		res.EngineVerdicts = map[string]string{"wfg": ref.VerdictString()}
		for _, f := range findings {
			res.EngineVerdicts[f.Engine] = f.VerdictString()
		}
	}
	if res.Deadlock {
		res.Cycle = an.Cycle()
		res.Groups = an.Groups()
	}
	res.Timings.DeadlockCheck = time.Since(checkStart)

	// A deadlock residue containing crashed ranks is a failure-induced
	// deadlock, not a communication deadlock: name the live ranks
	// transitively blocked on the dead ones.
	if res.Verdict == VerdictDeadlockByFailure {
		res.FailureBlocked = an.BlockedOn(res.DeadRanks)
	}

	if res.Deadlock {
		outStart := time.Now()
		res.UnexpectedMatches = findUnexpectedMatches(all)
		cg := an.Simplify()
		res.Summary = cg.Summary()
		var sb strings.Builder
		if cg.DOT(&sb) == nil {
			res.SimplifiedDOT = sb.String()
		}
		// The page and the full graph are rendered when somebody asks. The
		// renderers hold what they read — the report's fields, the grouped
		// snapshot — and nothing else of this root.
		dead := res.Deadlocked
		res.DOT = report.Render(func(w io.Writer) error { return snap.DOT(w, dead) })
		data := &report.Data{
			Procs:             r.p,
			Deadlocked:        res.Deadlocked,
			Cycle:             res.Cycle,
			Entries:           res.Entries,
			UnexpectedMatches: res.UnexpectedMatches,
			Arcs:              res.Arcs,
			Partial:           res.Partial,
			UnknownRanks:      res.UnknownRanks,
			DeadRanks:         res.DeadRanks,
			DeadLastCalls:     res.DeadLastCalls,
			FailureBlocked:    res.FailureBlocked,
			StalledRanks:      res.StalledRanks,
		}
		res.HTML = report.Render(func(w io.Writer) error { return report.WriteHTML(w, data) })
		res.Timings.OutputGeneration = time.Since(outStart)
	}
	return res
}

func containsRank(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// groupOrWorld returns the registry group, falling back to the full world
// when the communicator is unknown (should not happen for sealed comms).
func (r *Root) groupOrWorld(c trace.CommID) []int {
	if g := r.coll.Group(c); g != nil {
		return g
	}
	world := make([]int, r.p)
	for i := range world {
		world[i] = i
	}
	return world
}

// findUnexpectedMatches applies the Section 3.3 definition to the blocked
// entries: a blocked wildcard receive whose recorded match is not active,
// while a blocked (hence active) send of another rank could match it.
// Blocked sends are indexed by (destination, communicator) up front, so
// each wildcard receive only scans its own candidates — the p²-arc
// wildcard stress case (Fig. 10) used to pay a full O(n²) entry scan here.
func findUnexpectedMatches(entries []dws.WaitEntry) []report.UnexpectedMatch {
	type destComm struct {
		dest int
		comm trace.CommID
	}
	sendsTo := map[destComm][]*dws.WaitEntry{}
	for i := range entries {
		s := &entries[i]
		if !s.Kind.IsSend() || len(s.Targets) == 0 {
			continue
		}
		k := destComm{dest: s.Targets[0], comm: s.Comm}
		sendsTo[k] = append(sendsTo[k], s)
	}
	var out []report.UnexpectedMatch
	for _, e := range entries {
		if !e.IsWildcardRecv || e.MatchedSendProc < 0 {
			continue
		}
		for _, s := range sendsTo[destComm{dest: e.Rank, comm: e.Comm}] {
			if s.Rank == e.Rank {
				continue
			}
			if s.Rank == e.MatchedSendProc && s.TS == e.MatchedSendTS {
				continue // that IS the recorded match
			}
			if e.Tag != trace.AnyTag && s.Tag != e.Tag {
				continue
			}
			out = append(out, report.UnexpectedMatch{
				RecvRank: e.Rank, RecvTS: e.TS,
				MatchedSendRank: e.MatchedSendProc, MatchedSendTS: e.MatchedSendTS,
				ActiveSendRank: s.Rank, ActiveSendTS: s.TS,
			})
		}
	}
	return out
}
