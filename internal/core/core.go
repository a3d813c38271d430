// Package core wires the complete distributed deadlock-detection pipeline
// (Figure 1(b) of the paper): application ranks (the mpisim runtime) feed
// their call events into a TBON; first-layer nodes run distributed
// point-to-point matching and wait-state tracking (dws); the whole tree
// matches collectives (collmatch); and the root runs the timeout-triggered
// centralized graph detection (detect), aborting the application when a
// deadlock is found.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/detect"
	"dwst/internal/dws"
	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/journal"
	"dwst/internal/mpisim"
	"dwst/internal/tbon"
)

// ErrDeadlockDetected is the abort cause used when the tool found a
// deadlock.
var ErrDeadlockDetected = errors.New("MUST-style tool: deadlock detected")

// ErrStalled is the abort cause used when the progress watchdog flagged
// stalled ranks (alive, no MPI calls past the quiet period) and no
// wait-state deadlock explains the silence.
var ErrStalled = errors.New("MUST-style tool: stalled ranks (progress watchdog)")

// handler adapts one tbon node to its tool roles: first-layer wait-state
// tracker, interior aggregator, and/or root detector.
type handler struct {
	tn   *tbon.Node
	leaf *dws.Node
	agg  *collmatch.Aggregator
	root *detect.Root
	jr   *journalRec // first-layer write-ahead journal (nil = recovery off)
}

// Journal entry kinds: which dws entry point replays the payload.
const (
	kindRankEvent = iota // event.Event → OnEvent
	kindPeer             // peerMsg → OnPeer
	kindCollAck          // collmatch.Ack → OnCollAck
	kindRankDown         // dws.RankDown → OnRankDown
	kindPeerDown         // dws.PeerDown → OnPeerDown
)

// Journal origin namespaces. Rank events use the rank id itself (>= 0);
// peer messages from slot p use originPeer0 - p; all downward root/parent
// messages share one FIFO link and one origin.
const (
	originDown  = -1
	originPeer0 = -2
)

// peerMsg is the journal payload for an intralayer wait-state message.
type peerMsg struct {
	From int
	Msg  any
}

// journalRec is one handler incarnation's view of its slot journal: the
// fenced incarnation token, per-origin sequence counters (continuing the
// numbering of previous incarnations), and the checkpoint policy state.
type journalRec struct {
	j           *journal.Journal
	inc         uint64
	cap         int // suffix length forcing a checkpoint
	lastRetired int // leaf.RetiredOps() at the last checkpoint
	seqs        map[int]uint64
}

func (jr *journalRec) append(origin, kind int, payload any) {
	seq, ok := jr.seqs[origin]
	if !ok {
		seq = jr.j.NextSeq(origin)
	}
	jr.seqs[origin] = seq + 1
	jr.j.Append(jr.inc, journal.Entry{Origin: origin, Seq: seq, Kind: kind, Payload: payload})
}

// maybeCheckpoint applies the checkpoint policy after a journaled input:
// cut when enough operations retired since the last cut (the journal then
// holds mostly dead history) or when the suffix hit the hard cap. "Enough"
// is at least the window a checkpoint copies, so a tracker lagging by
// thousands of operations pays O(1) copying per retired operation, not
// O(window) every 64.
func (h *handler) maybeCheckpoint() {
	const retireEvery = 64
	jr := h.jr
	if jr == nil {
		return
	}
	every := max(retireEvery, h.leaf.WindowSize())
	if jr.j.Len() < jr.cap && h.leaf.RetiredOps()-jr.lastRetired < every {
		return
	}
	h.checkpointNow()
}

// checkpointNow cuts a checkpoint immediately (no-op while a snapshot is
// in flight — dws.Checkpoint refuses and the next input retries).
func (h *handler) checkpointNow() {
	jr := h.jr
	if jr == nil {
		return
	}
	if m := h.leaf.Checkpoint(); m != nil {
		if jr.j.Checkpoint(jr.inc, m) {
			jr.lastRetired = h.leaf.RetiredOps()
		}
	}
}

// replayEntry re-applies one journal entry to a restored leaf. The leaf's
// out surface is dws.Discard during replay: everything a replayed input
// would emit was already emitted by the crashed incarnation and lives on in
// the reliable transport's migrated outboxes.
func replayEntry(leaf *dws.Node, e journal.Entry) {
	switch e.Kind {
	case kindRankEvent:
		leaf.OnEvent(e.Payload.(event.Event))
	case kindPeer:
		p := e.Payload.(peerMsg)
		leaf.OnPeer(p.From, p.Msg)
	case kindCollAck:
		leaf.OnCollAck(e.Payload.(collmatch.Ack))
	case kindRankDown:
		m := e.Payload.(dws.RankDown)
		leaf.OnRankDown(m.Rank, m.LastCall)
	case kindPeerDown:
		leaf.OnPeerDown(e.Payload.(dws.PeerDown).Node)
	}
}

// tbonOut adapts a tbon node to the dws.Out interface.
type tbonOut struct{ tn *tbon.Node }

func (o tbonOut) Peer(node int, msg any) { o.tn.SendPeer(node, msg) }
func (o tbonOut) Up(msg any)             { o.tn.SendUp(msg) }

func (h *handler) FromRank(rank int, ev any) {
	h.FromRankEvent(rank, ev.(event.Event))
}

// FromRankEvent implements tbon.RankEventHandler: the typed intake the
// batched hot path uses to deliver application events without boxing.
func (h *handler) FromRankEvent(rank int, e event.Event) {
	if h.jr != nil {
		// Write-ahead: journal before the state transition, so a crash
		// between the two replays the input instead of losing it.
		h.jr.append(rank, kindRankEvent, e)
	}
	h.leaf.OnEventRef(&e)
	h.maybeCheckpoint()
}

func (h *handler) FromPeer(peer int, msg any) {
	if h.jr != nil {
		switch m := msg.(type) {
		case dws.PassSend, dws.RecvActive, dws.RecvActiveAck:
			// Only the wait-state messages mutate recoverable state;
			// snapshot ping-pong belongs to an epoch that a crash aborts.
			h.jr.append(originPeer0-peer, kindPeer, peerMsg{From: peer, Msg: msg})
		case dws.Batch:
			// Journal the wait-state subset of a coalesced batch as ONE
			// entry, preserving intra-batch order; interleaved ping-pong is
			// filtered out for the same reason as above. A batch without
			// ping-pong journals as it is, an all-ping-pong batch nothing.
			if kept := filterWaitState(m.Msgs); len(kept) == len(m.Msgs) {
				h.jr.append(originPeer0-peer, kindPeer, peerMsg{From: peer, Msg: msg})
			} else if len(kept) > 0 {
				h.jr.append(originPeer0-peer, kindPeer,
					peerMsg{From: peer, Msg: dws.Batch{FromNode: m.FromNode, Msgs: kept}})
			}
		}
	}
	h.leaf.OnPeer(peer, msg)
	h.maybeCheckpoint()
}

// filterWaitState returns the recoverable (wait-state) messages of one
// coalesced peer batch, by type: msgs itself when it holds no ping-pong
// (nothing modifies a sent batch), else a copy without it.
func filterWaitState(msgs []dws.PeerMsg) []dws.PeerMsg {
	if !slices.ContainsFunc(msgs, isControl) {
		return msgs
	}
	return slices.DeleteFunc(slices.Clone(msgs), isControl)
}

func isControl(m dws.PeerMsg) bool { return !m.Type.WaitState() }

// Held implements tbon.Holder: the first-layer tracker's held operations,
// which the intake bounds by EventBuf per hosted rank.
func (h *handler) Held() int { return h.leaf.Held() }

// Flush implements tbon.Flusher: at the end of every delivery cycle the
// substrate flushes the leaf's coalesced intralayer traffic. Interior and
// root nodes have nothing pending.
func (h *handler) Flush() {
	if h.leaf != nil {
		h.leaf.FlushPeers()
	}
}

// FromChild receives upward tool traffic: on interior nodes collectiveReady
// is aggregated and everything else passes through; on the root the message
// is consumed.
func (h *handler) FromChild(child int, msg any) {
	if h.agg != nil {
		if r, ok := msg.(collmatch.Ready); ok {
			outs, mism := h.agg.OnReady(r)
			if mism != nil {
				if h.root != nil {
					h.root.OnMismatch(*mism)
				} else {
					h.tn.SendUp(*mism)
				}
			}
			for _, out := range outs {
				h.up(out)
			}
			return
		}
	}
	h.up(msg)
}

// up consumes a message at the root or forwards it one layer towards it.
func (h *handler) up(msg any) {
	if h.root != nil {
		h.atRoot(msg)
		return
	}
	h.tn.SendUp(msg)
}

// FromParent receives downward broadcasts: leaves apply them, interior
// nodes forward them. A Resync additionally flushes the local aggregator
// (held partial waves move upward, later Readys pass through unmerged) so
// collective matching recovers after a crashed node lost aggregation state.
func (h *handler) FromParent(msg any) {
	if _, ok := msg.(collmatch.Resync); ok && h.agg != nil {
		for _, r := range h.agg.Flush() {
			h.up(r)
		}
	}
	if h.leaf != nil {
		h.applyDown(msg)
		return
	}
	h.tn.Broadcast(msg)
}

// Control receives driver messages at the root: the detection trigger, the
// snapshot-deadline abort, and tool-node crash notifications.
func (h *handler) Control(msg any) {
	if h.root == nil {
		return
	}
	switch m := msg.(type) {
	case detect.TriggerDetection:
		if h.root.Start() {
			h.down(dws.RequestConsistentState{Epoch: h.root.Epoch()})
		}
	case detect.AbortDetection:
		if ep := h.root.Abort(); ep != 0 {
			h.down(dws.AbortSnapshot{Epoch: ep})
		}
	case detect.NodeDown:
		if m.Recovered {
			// Exact recovery: the replacement rebuilt the dead incarnation's
			// state from its journal and the unacked frames migrated with the
			// links, so nothing was lost and nobody degrades. The only stale
			// thing is an in-flight snapshot epoch the dead incarnation never
			// acknowledged — abort it. The driver still waits on this
			// detection: a replacement that already replayed gets a fresh
			// epoch at once, anything else the deadline retry.
			if ep := h.root.Abort(); ep != 0 {
				h.down(dws.AbortSnapshot{Epoch: ep})
				if m.Replayed {
					h.root.Start()
					h.down(dws.RequestConsistentState{Epoch: h.root.Epoch()})
				}
			}
			return
		}
		// The dead node may have held partially aggregated collective waves
		// and unacked leaf state; flush the root's own aggregator and make
		// every survivor resynchronize.
		if h.agg != nil {
			for _, r := range h.agg.Flush() {
				h.atRoot(r)
			}
		}
		h.down(collmatch.Resync{})
		if m.Ranks != nil {
			// First-layer crash: surviving peers must stop waiting for its
			// pongs, and the root proceeds without its acks/reports.
			h.down(dws.PeerDown{Node: m.Node})
			if h.root.OnNodeDown(m.Node, m.Ranks) {
				h.down(dws.RequestWaits{Epoch: h.root.Epoch()})
			}
		}
	}
}

// down sends a message towards the first layer (applying it directly when
// this node IS the first layer).
func (h *handler) down(msg any) {
	if h.leaf != nil {
		h.applyDown(msg)
		return
	}
	h.tn.Broadcast(msg)
}

func (h *handler) applyDown(msg any) {
	switch m := msg.(type) {
	case collmatch.Ack:
		if h.jr != nil {
			h.jr.append(originDown, kindCollAck, m)
		}
		h.leaf.OnCollAck(m)
		h.maybeCheckpoint()
	case collmatch.Resync:
		h.leaf.ResendReady()
	case dws.RequestConsistentState:
		h.leaf.BeginSnapshot(m.Epoch)
	case dws.AbortSnapshot:
		h.leaf.Abort(m.Epoch)
	case dws.PeerDown:
		if h.jr != nil {
			h.jr.append(originDown, kindPeerDown, m)
		}
		h.leaf.OnPeerDown(m.Node)
	case dws.RequestWaits:
		rep, ok := h.leaf.BuildReports(m.Epoch)
		if !ok {
			return // stale request of an aborted attempt
		}
		// Epoch commit: the leaf just thawed and drained its deferred
		// events — the canonical moment to advance the journal watermark.
		h.checkpointNow()
		h.up(rep)
	case dws.RankDown:
		// Root rebroadcast of an application rank's death: every leaf
		// tombstones the rank's matching state (idempotent — the hosting
		// leaf already did when it processed the terminal event).
		if h.jr != nil {
			h.jr.append(originDown, kindRankDown, m)
		}
		h.leaf.OnRankDown(m.Rank, m.LastCall)
	default:
		panic(fmt.Sprintf("core: unexpected downward message %T", msg))
	}
}

func (h *handler) atRoot(msg any) {
	switch m := msg.(type) {
	case collmatch.Ready:
		for _, a := range h.root.OnReady(m) {
			h.down(a)
		}
	case collmatch.Member:
		for _, a := range h.root.OnMember(m) {
			h.down(a)
		}
	case collmatch.Mismatch:
		h.root.OnMismatch(m)
	case dws.AckConsistentState:
		if h.root.OnAck(m) {
			h.down(dws.RequestWaits{Epoch: h.root.Epoch()})
		}
	case dws.WaitReport:
		h.root.OnWaitReport(m) // result delivered via root.Results
	case dws.RankDown:
		// An application rank died: record it for verdict classification
		// and rebroadcast once, so every first-layer node marks the rank
		// crashed and drops its pending receives.
		if h.root.OnRankDown(m) {
			h.down(m)
		}
	default:
		panic(fmt.Sprintf("core: unexpected upward message %T", msg))
	}
}

// Run executes prog on procs ranks under the distributed tool and returns
// the report it filled. Options must have passed Validate; the zero FanIn,
// Timeout, SnapshotDeadline and MemBudget select their defaults here.
func Run(procs int, prog mpisim.Program, cfg Options) *Report {
	if cfg.FanIn == 0 {
		cfg.FanIn = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
	if cfg.SnapshotDeadline == 0 {
		cfg.SnapshotDeadline = 2 * time.Second
	}
	if cfg.MemBudget == 0 {
		cfg.MemBudget = DefaultMemBudget
	}

	journaling := cfg.Fault != nil && cfg.Fault.Recover && !cfg.Fault.DisableRetransmit
	var replayedMsgs, replayNanos atomic.Int64

	var netCfg *tbon.NetConfig
	if cfg.Net != nil {
		netCfg = &tbon.NetConfig{
			Role:    tbon.NetCoordinator,
			Workers: cfg.Net.Workers,
			Listen:  cfg.Net.Listen,
			// Worker stats reports, sent on every idle edge, tick at
			// KeepAlive/2: keep them well inside the quiescence Timeout.
			KeepAlive:  max(cfg.Timeout/2, 5*time.Millisecond),
			Budget:     cfg.Net.Budget,
			Recover:    cfg.Net.Recover,
			JournalCap: cfg.Net.JournalCap,
		}
	}

	var tree *tbon.Tree
	tree, err := tbon.NewNet(tbon.Config{
		Leaves:    procs,
		FanIn:     cfg.FanIn,
		EventBuf:  cfg.EventBuf,
		LinkDelay: cfg.LinkDelay,
		Batch:     true,
		MemBudget: cfg.MemBudget,
		Fault:     cfg.Fault,
		OnNodeDown: func(n *tbon.Node) {
			// Runs on the supervisor goroutine; Control is safe from any
			// goroutine and serializes with the root's other messages.
			nd := detect.NodeDown{Node: n.Index()}
			if n.IsFirstLayer() {
				nd.Ranks = tree.RanksOf(n.Index())
			}
			tree.Control(tree.Root(), nd)
		},
		OnNodeRecovered: func(n *tbon.Node) {
			// Tell the root nothing was lost, but abort any snapshot epoch
			// the dead incarnation left hanging. An in-process replacement
			// already replayed its journal inside mkHandler; a respawned TCP
			// worker is only admitted and replays next.
			tree.Control(tree.Root(), detect.NodeDown{
				Node: n.Index(), Ranks: tree.RanksOf(n.Index()), Recovered: true, Replayed: cfg.Net == nil,
			})
		},
		Net: netCfg,
	})
	if err != nil {
		return &Report{Err: err}
	}
	defer tree.Stop()

	root := detect.NewRoot(procs, len(tree.FirstLayer()))
	root.SetDifferential(cfg.Differential)
	var heard *lastHeard
	if cfg.WatchdogQuiet > 0 {
		heard = newLastHeard(procs)
		root.SetWatchdog(cfg.WatchdogQuiet, heard.silentFor)
	}

	// One journal per first-layer slot, shared by every incarnation of the
	// node hosted there; slotLeaf tracks the current incarnation's dws node
	// (a replacement's stats continue its predecessor's via the memento).
	journals := make([]*journal.Journal, len(tree.FirstLayer()))
	if journaling {
		for i := range journals {
			journals[i] = journal.New()
		}
	}
	jcap := 512
	if cfg.Fault != nil && cfg.Fault.JournalCap > 0 {
		jcap = cfg.Fault.JournalCap
	}
	var leafMu sync.Mutex
	slotLeaf := make(map[int]*dws.Node)

	tree.Start(func(n *tbon.Node) tbon.Handler {
		h := &handler{tn: n}
		if n.IsFirstLayer() {
			idx := n.Index()
			h.leaf = dws.NewNode(idx, n.Tree().RanksOf(idx), n.Tree().NodeFor, tbonOut{tn: n})
			h.leaf.SetBatch(true)
			if journaling {
				j := journals[idx]
				h.jr = &journalRec{j: j, inc: j.Fence(), cap: jcap, seqs: make(map[int]uint64)}
				base, suffix := j.Snapshot()
				if base != nil || len(suffix) > 0 {
					// Respawn of a crashed slot: rebuild the dead
					// incarnation's exact state — restore the checkpoint,
					// replay the suffix with sends discarded (the originals
					// live on in the migrated transport outboxes), then cut
					// a fresh checkpoint so repeated crashes replay little.
					begin := time.Now()
					h.leaf.SetOut(dws.Discard)
					if base != nil {
						h.leaf.Restore(base.(*dws.Memento))
					}
					for _, e := range suffix {
						replayEntry(h.leaf, e)
					}
					h.leaf.SetOut(tbonOut{tn: n})
					replayedMsgs.Add(int64(len(suffix)))
					replayNanos.Add(int64(time.Since(begin)))
					h.checkpointNow()
				}
			}
			leafMu.Lock()
			slotLeaf[idx] = h.leaf
			leafMu.Unlock()
		}
		if n.Layer() > 0 {
			h.agg = collmatch.NewAggregator(len(n.Children()))
		}
		if n.IsRoot() {
			h.root = root
		}
		return h
	})

	if cfg.Net != nil {
		// Bind the orchestrator's control handle before OnListen so the
		// supervisor goroutines it spawns can mint recovery tokens at once.
		if cfg.Net.Control != nil {
			cfg.Net.Control.bind(tree.PrepareRespawn)
		}
		// Hand the bound address to the orchestrator (which spawns the worker
		// processes), then block until every worker slot has connected: events
		// injected before the first tool layer exists would only pile up in
		// transport outboxes.
		if cfg.Net.OnListen != nil {
			cfg.Net.OnListen(tree.ListenAddr())
		}
		if err := tree.WaitReady(); err != nil {
			tree.Stop()
			return &Report{Err: err, ToolNodes: tree.NumNodes()}
		}
	}

	// Application-plane faults ride on the same plan as the link faults;
	// the simulator executes them, the tool only observes the fallout.
	var rankCrashes []fault.RankCrash
	var rankStalls []fault.RankStall
	if cfg.Fault != nil {
		rankCrashes = cfg.Fault.RankCrashes
		rankStalls = cfg.Fault.RankStalls
	}

	sendMode := mpisim.Eager
	if cfg.Rendezvous {
		sendMode = mpisim.Rendezvous
	}
	var dropped atomic.Uint64
	world := mpisim.NewWorld(mpisim.Config{
		Procs:                    procs,
		SendMode:                 sendMode,
		BufferSlots:              cfg.BufferSlots,
		BufferedSendCost:         cfg.BufferedSendCost,
		SsendEvery:               cfg.SsendEvery,
		SynchronizingCollectives: cfg.SynchronizingCollectives,
		TrackCallSites:           cfg.TrackCallSites,
		RankCrashes:              rankCrashes,
		RankStalls:               rankStalls,
		Sink: event.Func(func(ev event.Event) {
			rank := ev.Proc
			if ev.Type == event.Enter {
				rank = ev.Op.Proc
			}
			if heard != nil {
				heard.stamp(rank)
			}
			if err := tree.InjectEvent(rank, ev); err != nil {
				// Crashed hosting node or stopped tree: the application keeps
				// running unobserved (degraded mode); count the loss.
				dropped.Add(1)
			}
		}),
	})

	res := &Report{ToolNodes: tree.NumNodes(), MemBudget: cfg.MemBudget}
	if cfg.Context != nil {
		// External cancellation (session deadline, Ctrl-C) funnels into the
		// same abort path as the tool's own aborts and mpisim's HangTimeout.
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-cfg.Context.Done():
				world.Abort(context.Cause(cfg.Context))
			case <-stopWatch:
			}
		}()
	}
	start := time.Now()
	appDone := make(chan error, 1)
	go func() { appDone <- world.Run(prog) }()

	rootNode := tree.Root()
	// One timer drives the in-run detection. It fires Timeout after the
	// driver saw the tree go idle and, while a detection is in flight,
	// enforces SnapshotDeadline; a stale fire only re-evaluates. A driver
	// that finds the tree busy arms the tree's one-shot idle notification
	// (idleC) instead of polling.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	idleC := tree.NotifyIdle()

	record := func(r *detect.Result, live bool) {
		res.Detections++
		if len(r.EngineVerdicts) > 0 {
			if res.EngineVerdicts == nil {
				res.EngineVerdicts = make(map[string]string, len(r.EngineVerdicts))
			}
			for k, v := range r.EngineVerdicts {
				res.EngineVerdicts[k] = v
			}
		}
		res.EngineDeviations = append(res.EngineDeviations, r.EngineDeviations...)
		if r.Partial {
			res.Partial = true
			res.UnknownRanks = r.UnknownRanks
		}
		if len(r.DeadRanks) > 0 {
			res.DeadRanks = r.DeadRanks
			res.DeadLastCalls = r.DeadLastCalls
			res.FailureBlocked = r.FailureBlocked
		}
		if len(r.StalledRanks) > 0 {
			res.StalledRanks = r.StalledRanks
			res.WatchdogFires++
		}
		if r.Verdict != detect.VerdictNone &&
			(res.Verdict == detect.VerdictNone || res.Verdict == detect.VerdictStalled) {
			res.Verdict = r.Verdict
		}
		if r.Deadlock && !res.Deadlock {
			res.setDeadlock(r)
			if live {
				world.Abort(ErrDeadlockDetected)
			}
			return
		}
		if live && r.Verdict == detect.VerdictStalled && !res.Deadlock {
			// Stalled ranks will never quiesce into a wait-state deadlock;
			// end the run so the report reaches the user.
			world.Abort(ErrStalled)
		}
	}

	inFlight := false
	detectStart := time.Time{}

	// watch reads the tree's idle-since stamp: the detection starts once the
	// tree has stayed idle for Timeout, counted from the application's start
	// at the earliest.
	watch := func() {
		since, idle := tree.Idle()
		if since.Before(start) {
			since = start
		}
		switch {
		case !idle:
			idleC = tree.NotifyIdle()
		case time.Since(since) < cfg.Timeout:
			timer.Reset(cfg.Timeout - time.Since(since))
		default:
			if onTrigger != nil {
				onTrigger(tree, since)
			}
			tree.Control(rootNode, detect.TriggerDetection{})
			inFlight = true
			detectStart = time.Now()
			timer.Reset(cfg.SnapshotDeadline)
		}
	}

	for {
		select {
		case appErr := <-appDone:
			res.Elapsed = time.Since(start)
			if !res.Deadlock && (cfg.Context == nil || cfg.Context.Err() == nil) {
				// Final detection: catches potential deadlocks that did not
				// manifest (buffered send–send) once the tool drained. A
				// canceled run skips it — the caller asked for prompt
				// teardown, and a post-cancel verdict would be misleading
				// anyway (ranks were torn out mid-protocol).
				r, quiet := finalDetect(root, tree, rootNode, cfg.SnapshotDeadline, &inFlight, &res.SnapshotRetries)
				if r != nil {
					record(r, false)
					res.LostMessages = r.LostMessages
				}
				if r == nil || (!quiet && !res.Deadlock) {
					// It gave up, or looked at a tool that never drained:
					// "nothing found" is not "nothing there". A deadlock
					// found stands either way — deadlock is stable.
					res.FinalUnverified = true
					res.Partial = true
				}
			}
			res.AppAborted = appErr != nil
			res.AbortCause = appErr
			res.PotentialOnly = res.Deadlock && appErr == nil
			res.DroppedResults = root.DroppedResults()
			tree.Stop() // idempotent; quiesces node loops and the supervisor
			leafMu.Lock()
			leaves := make([]*dws.Node, 0, len(slotLeaf))
			for _, l := range slotLeaf {
				leaves = append(leaves, l)
			}
			leafMu.Unlock()
			res.WindowHighWater = windowHighWater(tree, leaves)
			res.DroppedEvents = int(dropped.Load())
			for _, j := range journals {
				if j == nil {
					continue
				}
				if hw := j.HighWater(); hw > res.JournalHighWater {
					res.JournalHighWater = hw
				}
			}
			res.ReplayedMsgs = int(replayedMsgs.Load())
			res.ReplayTime = time.Duration(replayNanos.Load())
			// Safe after the tree stopped: node goroutines are quiescent.
			for _, l := range leaves {
				res.ToolMessages.Add(l.Stats())
			}
			// This process's tool-plane counters, plus — over TCP — the final
			// reports the worker processes shipped during the shutdown
			// handshake inside tree.Stop. A worker degraded past budget simply
			// has no final (its leaves were already reported down via
			// OnNodeDown).
			res.Counters = tree.Counters()
			for _, wf := range tree.WorkerFinals() {
				res.Counters.Fold(wf.Counters)
				res.ToolMessages.Add(wf.MsgStats)
				if wf.WindowHighWater > res.WindowHighWater {
					res.WindowHighWater = wf.WindowHighWater
				}
			}
			res.ReplayedMsgs += int(res.ShippedJournalEntries)
			res.ReplayTime += tree.WireReplayTime()
			// Budget exhaustion despite backpressure is honest degradation:
			// the run is marked Overloaded, and the report Partial — results
			// may be incomplete because the tool shed load rather than grow
			// without bound.
			if res.OverflowEvents > 0 {
				res.Overloaded = true
				res.Partial = true
			}
			for _, m := range root.Mismatches() {
				res.CallMismatches = append(res.CallMismatches, m.String())
			}
			return res

		case r := <-root.Results:
			// Re-armed after each result: the next detection waits for a
			// fresh idle period.
			inFlight = false
			record(r, true)
			idleC = tree.NotifyIdle()

		case <-idleC:
			idleC = nil
			if !inFlight {
				watch()
			}

		case <-timer.C:
			if !inFlight {
				watch()
				continue
			}
			if time.Since(detectStart) >= cfg.SnapshotDeadline {
				// The snapshot missed its deadline (messages lost beyond
				// what retransmission healed): abort it and retry
				// immediately under a fresh epoch. Both controls queue in
				// order on the root goroutine.
				tree.Control(rootNode, detect.AbortDetection{})
				tree.Control(rootNode, detect.TriggerDetection{})
				res.SnapshotRetries++
				detectStart = time.Now()
			}
			timer.Reset(cfg.SnapshotDeadline - time.Since(detectStart))
		}
	}
}

// onTrigger, when set (by tests), is called just before the in-run driver
// triggers a detection, with the tree and the instant it saw the idle
// period begin.
var onTrigger func(tree *tbon.Tree, idleSince time.Time)

// lastHeard is the progress watchdog's one clock: per rank, when the rank
// last emitted an event, stamped by the interposition sink as the rank
// emits it. Stamps count nanoseconds from the clock's creation, so a rank
// not heard from yet reads as heard when the run began.
type lastHeard struct {
	base time.Time
	ns   []atomic.Int64
}

func newLastHeard(procs int) *lastHeard {
	return &lastHeard{base: time.Now(), ns: make([]atomic.Int64, procs)}
}

// stamp records that rank emitted an event now. Called on the rank's own
// goroutine.
func (h *lastHeard) stamp(rank int) { h.ns[rank].Store(int64(time.Since(h.base))) }

// silentFor is how long rank has emitted nothing. Safe from any goroutine.
func (h *lastHeard) silentFor(rank int) time.Duration {
	return time.Since(h.base) - time.Duration(h.ns[rank].Load())
}

// waitQuiesce waits until the tree is idle: nothing queued, handled or
// awaiting acknowledgement anywhere in the tool (tbon.Tree.Idle). It reports
// whether that was established before quiesceDeadline: a fabric that never
// drains must not hang the run, but the snapshot taken on it may be
// incomplete.
func waitQuiesce(tree *tbon.Tree) bool {
	deadline := time.NewTimer(quiesceDeadline)
	defer deadline.Stop()
	for {
		select {
		case <-tree.NotifyIdle():
			if _, idle := tree.Idle(); idle {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}

// quiesceDeadline bounds waitQuiesce. A variable so tests can exercise the
// give-up without the full wait.
var quiesceDeadline = 10 * time.Second

// finalDetect runs the after-the-application detection with the same
// deadline-abort-retry discipline as the in-run driver, bounded so a
// hopelessly degraded tree (everything dropped, retransmission disabled)
// terminates rather than hangs: a nil result means every attempt missed its
// deadline (each counted in *retries), so no verdict was reached. quiet
// reports whether the tool had quiesced before the attempt that returned.
func finalDetect(root *detect.Root, tree *tbon.Tree, rootNode *tbon.Node, deadline time.Duration, inFlight *bool, retries *int) (r *detect.Result, quiet bool) {
	const maxAttempts = 5
	for attempt := 0; attempt < maxAttempts; attempt++ {
		quiet = waitQuiesce(tree)
		if !*inFlight {
			tree.Control(rootNode, detect.TriggerDetection{})
			*inFlight = true
		}
		select {
		case r := <-root.Results:
			*inFlight = false
			return r, quiet
		case <-time.After(deadline):
			tree.Control(rootNode, detect.AbortDetection{})
			*inFlight = false
			*retries++
		}
	}
	return nil, quiet
}

// windowHighWater reads the per-node window statistics after the tree
// stopped; the caller guarantees node loops are quiescent.
func windowHighWater(tree *tbon.Tree, leaves []*dws.Node) int {
	tree.Stop()
	max := 0
	for _, l := range leaves {
		if l.WindowHighWater() > max {
			max = l.WindowHighWater()
		}
	}
	return max
}
