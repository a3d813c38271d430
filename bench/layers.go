package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/detect"
	"dwst/internal/dws"
	"dwst/internal/engine"
	"dwst/internal/event"
	"dwst/internal/journal"
	"dwst/internal/p2pmatch"
	"dwst/internal/report"
	"dwst/internal/tbon"
	"dwst/internal/trace"
	"dwst/internal/tracegen"
	"dwst/internal/waitstate"
	"dwst/internal/wire"
	"dwst/must"
)

// The traced pass replays a workload's captured event streams through each
// module's public functions, from the outside, one module at a time. Every
// replay is wrapped in a span; the per-layer metrics are what the spans and
// the counts taken at the same boundary say.

const fanIn = 4

// cost is one replay: operations done, and the time and allocations they
// took (medians over however many times the replay fitted its budget).
type cost struct {
	ops    float64
	wall   time.Duration
	cpu    time.Duration // process CPU: what a multi-goroutine replay really spent
	allocs float64
}

func (c cost) nsPerOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.wall) / c.ops
}

func (c cost) cpuNSPerOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.cpu) / c.ops
}

func (c cost) allocsPerOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return c.allocs / c.ops
}

// replayer times replays under a recorder.
type replayer struct {
	rec *recorder
}

// run calls f — one complete replay returning its operation count — until
// budget is spent, at least once, each call in a span of its own.
func (r replayer) run(name string, budget time.Duration, f func() float64) cost {
	var walls, cpus, allocs []float64
	var ops float64
	var before, after runtime.MemStats
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		id := r.rec.begin(name, -1, i)
		t0 := time.Now()
		ops = f()
		walls = append(walls, float64(time.Since(t0)))
		r.rec.end(id)
		cpus = append(cpus, float64(cpuTime()-cpu0))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return cost{ops: ops, wall: time.Duration(median(walls)), cpu: time.Duration(median(cpus)), allocs: median(allocs)}
}

// --- p2pmatch -------------------------------------------------------------

// replayP2P feeds every captured send, receive and wildcard status to one
// matching engine and returns the operations fed and the matches made.
func replayP2P(evs []event.Event) (ops, matches float64) {
	e := p2pmatch.NewEngine()
	for i := range evs {
		ev := &evs[i]
		switch ev.Type {
		case event.Enter:
			o := &ev.Op
			switch {
			case o.Kind.IsSend():
				e.AddSend(p2pmatch.SendInfo{Proc: o.Proc, TS: o.TS, Src: o.SelfGroup, Dest: o.PeerWorld, Tag: o.Tag, Comm: o.Comm, Kind: o.Kind})
				ops++
			case o.Kind.IsRecv() && o.Kind != trace.Iprobe:
				e.AddRecv(p2pmatch.RecvInfo{Proc: o.Proc, TS: o.TS, Src: o.Peer, Tag: o.Tag, Comm: o.Comm, Probe: o.Kind.IsProbe()})
				ops++
			}
		case event.Status:
			e.Resolve(ev.Proc, ev.TS, ev.Src)
			ops++
		}
	}
	return ops, float64(e.Emitted())
}

// --- collmatch ------------------------------------------------------------

// collTree is the collective-matching side of a fan-in-4 tool tree: a Leaf
// per first-layer node, an Aggregator per interior node, the Root.
type collTree struct {
	leaves []*collmatch.Leaf
	aggs   [][]*collmatch.Aggregator // aggs[l][i]: node i of layer l+1
	root   *collmatch.Root
	seq    []int // per-rank wave counter (world communicator)
	hops   float64
	waves  float64
}

func layerWidths(procs int) []int {
	widths := []int{(procs + fanIn - 1) / fanIn}
	for widths[len(widths)-1] > 1 {
		widths = append(widths, (widths[len(widths)-1]+fanIn-1)/fanIn)
	}
	return widths
}

func newCollTree(procs int) *collTree {
	widths := layerWidths(procs)
	t := &collTree{root: collmatch.NewRoot(procs, widths[0]), seq: make([]int, procs)}
	for i := 0; i < widths[0]; i++ {
		t.leaves = append(t.leaves, collmatch.NewLeaf(i, min(fanIn, procs-i*fanIn)))
	}
	for l := 1; l < len(widths); l++ {
		layer := make([]*collmatch.Aggregator, widths[l])
		for i := range layer {
			layer[i] = collmatch.NewAggregator(min(fanIn, widths[l-1]-i*fanIn))
		}
		t.aggs = append(t.aggs, layer)
	}
	return t
}

// up carries a Ready from node idx of layer `from` to the root, through
// every aggregator on the way.
func (t *collTree) up(r collmatch.Ready, from, idx int) {
	if from == len(t.aggs) {
		t.hops++
		acks, _ := t.root.OnReady(r)
		t.waves += float64(len(acks))
		return
	}
	t.hops++
	outs, _ := t.aggs[from][idx/fanIn].OnReady(r)
	for _, o := range outs {
		t.up(o, from+1, idx/fanIn)
	}
}

// replayColl feeds every captured collective call on the world
// communicator through Leaf.Activate and, unless leafOnly, on through the
// aggregators to the root.
func replayColl(s *stream, evs []event.Event, leafOnly bool) *collTree {
	t := newCollTree(s.procs)
	for i := range evs {
		ev := &evs[i]
		if ev.Type != event.Enter || !ev.Op.Kind.IsCollective() || ev.Op.Comm != trace.CommWorld {
			continue
		}
		o := &ev.Op
		wave := t.seq[o.Proc]
		t.seq[o.Proc]++
		node := o.Proc / fanIn
		r, emit, _ := t.leaves[node].Activate(o.Comm, wave, true, o.Kind, o.Peer, o.Proc)
		if emit && !leafOnly {
			t.up(r, 0, node)
		}
	}
	return t
}

func countCollective(evs []event.Event) float64 {
	n := 0.0
	for i := range evs {
		if evs[i].Type == event.Enter && evs[i].Op.Kind.IsCollective() && evs[i].Op.Comm == trace.CommWorld {
			n++
		}
	}
	return n
}

// --- dws ------------------------------------------------------------------

// dwsHarness drives a first layer of dws.Nodes single-threaded behind an
// in-memory dws.Out, playing tbon (peer queues, end-of-cycle flushes) and
// the root (collective acks), as internal/dws's own tests do.
type dwsHarness struct {
	procs     int
	nodes     []*dws.Node
	coll      *collmatch.Root
	peerQ     []peerEnv
	envelopes float64 // Peer() calls: what would cross a tbon link
	peerMsgs  float64 // wait-state and ping-pong messages inside them
	acks      int
	reports   []dws.WaitReport
}

type peerEnv struct {
	from, to int
	msg      any
}

type dwsOut struct {
	h  *dwsHarness
	id int
}

func (o dwsOut) Peer(node int, msg any) {
	o.h.envelopes++
	if b, ok := msg.(dws.Batch); ok {
		o.h.peerMsgs += float64(len(b.Msgs))
	} else {
		o.h.peerMsgs++
	}
	o.h.peerQ = append(o.h.peerQ, peerEnv{from: o.id, to: node, msg: msg})
}

func (o dwsOut) Up(msg any) {
	h := o.h
	switch m := msg.(type) {
	case collmatch.Ready:
		acks, _ := h.coll.OnReady(m)
		h.broadcast(acks)
	case collmatch.Member:
		h.broadcast(h.coll.OnMember(m))
	case dws.AckConsistentState:
		h.acks++
	case dws.WaitReport:
		h.reports = append(h.reports, m)
	}
}

func (h *dwsHarness) broadcast(acks []collmatch.Ack) {
	for _, a := range acks {
		for _, n := range h.nodes {
			n.OnCollAck(a)
		}
	}
}

func newDWSHarness(procs int) *dwsHarness {
	numNodes := (procs + fanIn - 1) / fanIn
	h := &dwsHarness{procs: procs, coll: collmatch.NewRoot(procs, numNodes)}
	nodeFor := func(rank int) int { return rank / fanIn }
	for i := 0; i < numNodes; i++ {
		var hosted []int
		for r := i * fanIn; r < (i+1)*fanIn && r < procs; r++ {
			hosted = append(hosted, r)
		}
		n := dws.NewNode(i, hosted, nodeFor, dwsOut{h: h, id: i})
		n.SetBatch(true)
		h.nodes = append(h.nodes, n)
	}
	return h
}

// drain delivers queued intralayer messages until none is left. One cycle
// hands every node all that is due for it, then flushes the node — what a
// batched tbon queue pump does per wakeup.
func (h *dwsHarness) drain() {
	for len(h.peerQ) > 0 {
		q := h.peerQ
		h.peerQ = nil
		touched := map[int]bool{}
		for _, m := range q {
			h.nodes[m.to].OnPeer(m.from, m.msg)
			touched[m.to] = true
		}
		// Flush in node order: map order would make the replay differ from
		// run to run.
		for i, n := range h.nodes {
			if touched[i] {
				n.FlushPeers()
			}
		}
	}
}

// feed replays a stream: each round hands every node the next event of
// each rank it hosts (one delivery cycle), flushes, and drains.
func (h *dwsHarness) feed(s *stream) {
	for i := 0; ; i++ {
		any := false
		for ni, n := range h.nodes {
			fed := false
			for r := ni * fanIn; r < (ni+1)*fanIn && r < s.procs; r++ {
				if i < len(s.perRank[r]) {
					n.OnEvent(s.perRank[r][i])
					fed = true
				}
			}
			if fed {
				n.FlushPeers()
				any = true
			}
		}
		h.drain()
		if !any {
			return
		}
	}
}

// snapshot runs the consistent-state protocol of one epoch and collects
// every node's wait report.
func (h *dwsHarness) snapshot(epoch int) error {
	h.acks, h.reports = 0, nil
	for _, n := range h.nodes {
		n.BeginSnapshot(epoch)
		n.FlushPeers()
	}
	h.drain()
	if h.acks != len(h.nodes) {
		return fmt.Errorf("dws replay: %d of %d nodes acknowledged the consistent state", h.acks, len(h.nodes))
	}
	for _, n := range h.nodes {
		rep, ok := n.BuildReports(epoch)
		if !ok {
			return fmt.Errorf("dws replay: node %d not frozen under epoch %d", n.ID(), epoch)
		}
		h.reports = append(h.reports, rep)
		n.FlushPeers()
	}
	h.drain()
	return nil
}

func (h *dwsHarness) stats() (st dws.Stats, window int) {
	for _, n := range h.nodes {
		st.Add(n.Stats())
		window = max(window, n.WindowHighWater())
	}
	return st, window
}

// rootAnalyze drives a detect.Root directly with the harness's wait
// reports — no tree — and returns its result.
func rootAnalyze(procs int, reports []dws.WaitReport) *detect.Result {
	root := detect.NewRoot(procs, len(reports))
	root.Start()
	for i := range reports {
		root.OnAck(dws.AckConsistentState{Node: i, Epoch: root.Epoch()})
	}
	var res *detect.Result
	for _, rep := range reports {
		rep.Epoch = root.Epoch()
		if r := root.OnWaitReport(rep); r != nil {
			res = r
		}
	}
	<-root.Results // the root also queues the result for a driver
	return res
}

// snapshotOf expands wait reports into the engine-neutral snapshot the
// detection engines analyze, the way detect.Root does for programs that use
// only the world communicator (every workload here).
func snapshotOf(procs int, reports []dws.WaitReport) *engine.Snapshot {
	snap := &engine.Snapshot{Procs: procs, Blocked: map[int]engine.Wait{}}
	type wave struct {
		comm trace.CommID
		w    int
	}
	inWave := map[wave]map[int]bool{}
	var blocked []dws.WaitEntry
	for _, rep := range reports {
		for _, e := range rep.Entries {
			switch e.State {
			case dws.Finished:
				snap.Finished = append(snap.Finished, e.Rank)
			case dws.Blocked:
				blocked = append(blocked, e)
				if e.IsColl {
					k := wave{e.CollComm, e.CollWave}
					if inWave[k] == nil {
						inWave[k] = map[int]bool{}
					}
					inWave[k][e.Rank] = true
				}
			}
		}
	}
	for _, e := range blocked {
		seen := map[int]bool{e.Rank: true}
		var targets []int
		add := func(t int) {
			if !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range e.Targets {
			add(t)
		}
		for range e.WildComms {
			for t := 0; t < procs; t++ {
				add(t)
			}
		}
		for _, rs := range e.ResolvedSrcs {
			add(rs.Src)
		}
		if e.IsColl {
			for t := 0; t < procs; t++ {
				if !inWave[wave{e.CollComm, e.CollWave}][t] {
					add(t)
				}
			}
		}
		sem := waitstate.AndWait
		if e.Sem == dws.SemOr {
			sem = waitstate.OrWait
		}
		snap.Blocked[e.Rank] = engine.Wait{Sem: sem, Targets: targets, Desc: e.Desc}
	}
	sort.Ints(snap.Finished)
	return snap
}

// --- tracegen snapshot -----------------------------------------------------

// genSnapshot is the seeded stand-in snapshot for workloads that end
// without a deadlock of their own: a random matched trace with a share of
// its matches dropped, run to its stuck state by the reference transition
// system.
func genSnapshot(seed int64, procs int) (*engine.Snapshot, map[int]waitstate.WaitInfo) {
	rng := rand.New(rand.NewSource(seed))
	cfg := tracegen.Default(procs)
	cfg.PProbe = 0 // probe matches hang off their send's; none, so a drop is two deletions
	mt := tracegen.Generate(cfg, rng)
	// tracegen.DropMatches walks a map, so which matches it drops differs
	// from run to run for the same seed; dropping over the sorted pairs
	// makes the snapshot a function of the seed alone.
	type pair struct{ a, b trace.Ref }
	var pairs []pair
	for a, b := range mt.P2P {
		if a.Proc < b.Proc || (a.Proc == b.Proc && a.TS < b.TS) {
			pairs = append(pairs, pair{a, b})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a.Proc != pairs[j].a.Proc {
			return pairs[i].a.Proc < pairs[j].a.Proc
		}
		return pairs[i].a.TS < pairs[j].a.TS
	})
	for _, p := range pairs {
		if rng.Float64() < 0.3 {
			delete(mt.P2P, p.a)
			delete(mt.P2P, p.b)
		}
	}
	sys := waitstate.New(mt)
	term, _ := sys.Run(sys.Initial())
	snap := &engine.Snapshot{Procs: procs, Blocked: map[int]engine.Wait{}}
	infos := map[int]waitstate.WaitInfo{}
	for i := 0; i < procs; i++ {
		switch {
		case sys.Blocked(term, i):
			w := sys.WaitFor(term, i)
			infos[i] = w
			snap.Blocked[i] = engine.Wait{Sem: w.Semantics, Targets: w.Targets, Desc: w.Desc}
		case sys.Done(term, i):
			snap.Finished = append(snap.Finished, i)
		}
	}
	return snap, infos
}

// --- tbon -----------------------------------------------------------------

// tbonBench counts deliveries in a tree of no-op handlers.
type tbonBench struct {
	ranks, peers, ups, downs atomic.Int64
}

// burst asks a node (through Control) to send n messages of one kind.
type burst struct {
	kind byte // 'p' peer, 'u' up, 'd' down
	n    int
}

type countHandler struct {
	tn *tbon.Node
	b  *tbonBench
}

func (h *countHandler) FromRank(int, any)              { h.b.ranks.Add(1) }
func (h *countHandler) FromRankEvent(int, event.Event) { h.b.ranks.Add(1) }
func (h *countHandler) FromPeer(int, any)              { h.b.peers.Add(1) }

func (h *countHandler) FromChild(_ int, msg any) {
	h.b.ups.Add(1)
	if !h.tn.IsRoot() {
		h.tn.SendUp(msg)
	}
}

func (h *countHandler) FromParent(msg any) {
	h.b.downs.Add(1)
	h.tn.Broadcast(msg)
}

func (h *countHandler) Control(msg any) {
	b, ok := msg.(burst)
	if !ok {
		return
	}
	for i := 0; i < b.n; i++ {
		switch b.kind {
		case 'p':
			h.tn.SendPeer((h.tn.Index()+1)%h.tn.NumPeers(), dws.PassSend{SendProc: h.tn.Index(), SendTS: i, FromNode: h.tn.Index()})
		case 'u':
			h.tn.SendUp(collmatch.Ready{Wave: i, Count: 1, Rank: h.tn.Index()})
		case 'd':
			h.tn.Broadcast(collmatch.Ack{Wave: i})
		}
	}
}

func newCountTree(procs int, b *tbonBench) *tbon.Tree {
	t := tbon.New(tbon.Config{Leaves: procs, FanIn: fanIn, Batch: true, MemBudget: must.DefaultMemBudget})
	t.Start(func(n *tbon.Node) tbon.Handler { return &countHandler{tn: n, b: b} })
	return t
}

// await spins until the counter reaches want (the tree's node goroutines
// are doing the work; this goroutine only watches).
func await(c *atomic.Int64, want int64) {
	for c.Load() < want {
		time.Sleep(50 * time.Microsecond)
	}
}

// tbonInject injects the events from as many goroutines as there are
// processors and waits until the first layer has handled them all.
func tbonInject(procs int, evs []event.Event, repeat int) float64 {
	var b tbonBench
	t := newCountTree(procs, &b)
	defer t.Stop()
	workers := runtime.GOMAXPROCS(0)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for k := 0; k < repeat; k++ {
				for i := range evs {
					rank := evs[i].Proc
					if evs[i].Type == event.Enter {
						rank = evs[i].Op.Proc
					}
					// Split by rank, so each rank's events keep their order.
					if rank%workers == w {
						t.InjectEvent(rank, evs[i])
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	total := int64(len(evs) * repeat)
	await(&b.ranks, total)
	return float64(total)
}

// tbonBurst makes every sending node send perNode messages of one kind and
// waits for every delivery; it returns the deliveries (message hops).
func tbonBurst(procs int, kind byte, perNode int) float64 {
	var b tbonBench
	t := newCountTree(procs, &b)
	defer t.Stop()
	widths := layerWidths(procs)
	nodes := 0
	for _, w := range widths {
		nodes += w
	}
	var want int64
	switch kind {
	case 'p':
		for _, n := range t.FirstLayer() {
			t.Control(n, burst{kind, perNode})
		}
		want = int64(perNode * widths[0])
		await(&b.peers, want)
	case 'u':
		for _, n := range t.FirstLayer() {
			t.Control(n, burst{kind, perNode})
		}
		want = int64(perNode * widths[0] * max(1, len(widths)-1))
		await(&b.ups, want)
	case 'd':
		t.Control(t.Root(), burst{kind, perNode})
		want = int64(perNode * (nodes - 1))
		await(&b.downs, want)
	}
	return float64(want)
}

// --- wire and journal -------------------------------------------------------

// gobPayload serializes one tool message the way the TCP transport's codec
// does: a self-contained gob blob (fresh encoder, type descriptions
// included) of the message boxed in an interface.
func gobPayload(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		panic(fmt.Sprintf("bench: gob: %v", err)) // registered types only: a bug if it fails
	}
	return buf.Bytes()
}

func gobRoundTrip(n int) float64 {
	msg := any(dws.PassSend{SendProc: 3, SendTS: 1000, SrcGroup: 3, Dest: 4, Tag: 7, Kind: trace.Isend, FromNode: 0})
	for i := 0; i < n; i++ {
		var v any
		if err := gob.NewDecoder(bytes.NewReader(gobPayload(msg))).Decode(&v); err != nil {
			panic(fmt.Sprintf("bench: gob: %v", err))
		}
	}
	return float64(n)
}

func wireEncode(n int, payload []byte, buf []byte) []byte {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf, _ = wire.Append(buf, wire.Frame{Kind: wire.KindData, Dst: int32(i), Payload: payload})
	}
	return buf
}

func wireDecode(buf []byte) float64 {
	frames := 0.0
	for len(buf) > 0 {
		_, n, err := wire.Decode(buf)
		if err != nil {
			panic(fmt.Sprintf("bench: wire.Decode: %v", err))
		}
		buf = buf[n:]
		frames++
	}
	return frames
}

// journalAppend journals every event under the tool's checkpoint policy
// (cut at 512 live entries) and returns the entries and the high-water.
func journalAppend(evs []event.Event) (float64, int) {
	j := journal.New()
	inc := j.Fence()
	seqs := map[int]uint64{}
	for i := range evs {
		rank := evs[i].Proc
		if evs[i].Type == event.Enter {
			rank = evs[i].Op.Proc
		}
		j.Append(inc, journal.Entry{Origin: rank, Seq: seqs[rank], Payload: evs[i]})
		seqs[rank]++
		if j.Len() >= 512 {
			j.Checkpoint(inc, nil)
		}
	}
	return float64(len(evs)), j.HighWater()
}

// --- putting it together ----------------------------------------------------

// layerInput is what the replays run on: one or more captured streams.
type layerInput struct {
	streams  []*stream
	deadlock bool // the (single) stream ends in the workload's deadlock
}

func (in *layerInput) totals() (calls, events float64) {
	for _, s := range in.streams {
		calls += float64(s.calls)
		events += float64(s.events)
	}
	return calls, events
}

// layerCosts are the per-operation costs and counts the attribution uses.
type layerCosts struct {
	calls, events            float64
	injectNS, dwsNS          float64
	peerNS, upNS, downNS     float64
	envelopes, upHops, waves float64
	treeNodes                float64
	snapUpHops, snapDownHops float64 // one message per first-layer node up, one broadcast down
	collTreeNS, members      float64
	snapshotNS               float64 // whole first layer, one snapshot
	setupNS                  float64
	gobNS, frameNS           float64
	journalNS                float64
}

// replayLayers runs every stream-driven replay and records the per-layer
// metrics. It returns the costs and the end-state snapshot (with what the
// report replays need), which is the workload's own deadlock or a seeded
// tracegen stand-in.
func replayLayers(res *result, cfg runConfig, in *layerInput, budget time.Duration) (*layerCosts, error) {
	rp := replayer{rec: cfg.rec}
	slice := budget / 20
	lc := &layerCosts{}
	lc.calls, lc.events = in.totals()
	flat := make([][]event.Event, len(in.streams))
	for i, s := range in.streams {
		flat[i] = s.interleaved()
	}
	res.set("mpisim.events", lc.events, nil)

	// p2pmatch
	var matches float64
	c := rp.run("p2pmatch", slice*2, func() (ops float64) {
		matches = 0
		for _, evs := range flat {
			o, m := replayP2P(evs)
			ops += o
			matches += m
		}
		return ops
	})
	res.set("p2pmatch.ns_per_op", c.nsPerOp(), nil)
	res.set("p2pmatch.allocs_per_op", c.allocsPerOp(), nil)
	res.set("p2pmatch.matches", matches, nil)

	// collmatch
	for _, evs := range flat {
		lc.members += countCollective(evs)
	}
	collRun := func(leafOnly bool) func() float64 {
		return func() float64 {
			lc.upHops, lc.waves = 0, 0
			for i, s := range in.streams {
				t := replayColl(s, flat[i], leafOnly)
				lc.upHops += t.hops
				lc.waves += t.waves
			}
			return lc.members
		}
	}
	leaf := rp.run("collmatch.leaf", slice/2, collRun(true))
	full := rp.run("collmatch", slice, collRun(false))
	res.set("collmatch.ns_per_member", full.nsPerOp(), nil)
	res.set("collmatch.waves", lc.waves, nil)
	lc.collTreeNS = max(0, full.nsPerOp()-leaf.nsPerOp())

	// dws: feed, then one snapshot of the end state.
	var stats dws.Stats
	var window int
	var harnesses []*dwsHarness
	c = rp.run("dws.feed", slice*4, func() float64 {
		stats, window, lc.envelopes = dws.Stats{}, 0, 0
		harnesses = harnesses[:0]
		var peerMsgs float64
		for _, s := range in.streams {
			h := newDWSHarness(s.procs)
			h.feed(s)
			st, w := h.stats()
			stats.Add(st)
			window = max(window, w)
			lc.envelopes += h.envelopes
			peerMsgs += h.peerMsgs
			harnesses = append(harnesses, h)
		}
		if lc.envelopes > 0 {
			res.set("dws.msgs_per_batch", peerMsgs/lc.envelopes, nil)
		}
		return lc.events
	})
	lc.dwsNS = c.nsPerOp()
	res.set("dws.ns_per_event", c.nsPerOp(), nil)
	res.set("dws.allocs_per_event", c.allocsPerOp(), nil)
	res.set("dws.msgs_per_call", float64(stats.Total())/lc.calls, nil)
	res.set("dws.window_hw", float64(window), nil)

	var ranks float64
	var snapErr error
	epoch := 0
	c = rp.run("dws.snapshot", slice, func() float64 {
		epoch++
		ranks = 0
		for _, h := range harnesses {
			if err := h.snapshot(epoch); err != nil {
				snapErr = err
			}
			ranks += float64(h.procs)
		}
		return ranks
	})
	if snapErr != nil {
		return nil, snapErr
	}
	lc.snapshotNS = float64(c.wall)
	res.set("dws.snapshot_us_per_rank", c.nsPerOp()/1e3, nil)

	// journal: append under the checkpoint policy; a checkpoint is the
	// node's memento plus the journal cut.
	var hw int
	c = rp.run("journal.append", slice/2, func() (n float64) {
		for _, evs := range flat {
			e, h := journalAppend(evs)
			n += e
			hw = max(hw, h)
		}
		return n
	})
	lc.journalNS = c.nsPerOp()
	res.set("journal.append_ns_per_entry", c.nsPerOp(), nil)
	res.set("journal.high_water", float64(hw), nil)
	c = rp.run("journal.checkpoint", slice/2, func() (n float64) {
		for _, h := range harnesses {
			j := journal.New()
			inc := j.Fence()
			for _, node := range h.nodes {
				if m := node.Checkpoint(); m != nil {
					j.Checkpoint(inc, m)
					n++
				}
			}
		}
		return n
	})
	res.set("journal.checkpoint_us", c.nsPerOp()/1e3, nil)

	// tbon: no-op handlers, so what is timed is queues, pumps and links.
	// These replays run on every node goroutine at once: cost is process
	// CPU per delivery, not wall clock.
	big, evs := in.streams[0], flat[0] // the largest stream stands for the workload
	for i, s := range in.streams {
		if s.events > big.events {
			big, evs = s, flat[i]
		}
	}
	repeat := max(1, 50000/len(evs))
	c = rp.run("tbon.inject", slice*2, func() float64 { return tbonInject(big.procs, evs, repeat) })
	lc.injectNS = c.cpuNSPerOp()
	res.set("tbon.inject_ns_per_event", lc.injectNS, nil)
	widths := layerWidths(big.procs)
	for _, w := range widths {
		lc.treeNodes += float64(w)
	}
	perNode := max(1, 60000/widths[0])
	var msgAllocs, msgs float64
	c = rp.run("tbon.peer", slice, func() float64 { return tbonBurst(big.procs, 'p', perNode) })
	lc.peerNS = c.cpuNSPerOp()
	msgAllocs, msgs = msgAllocs+c.allocs, msgs+c.ops
	res.set("tbon.peer_ns_per_msg", lc.peerNS, nil)
	c = rp.run("tbon.up", slice, func() float64 { return tbonBurst(big.procs, 'u', perNode) })
	lc.upNS = c.cpuNSPerOp()
	msgAllocs, msgs = msgAllocs+c.allocs, msgs+c.ops
	res.set("tbon.up_ns_per_msg", lc.upNS, nil)
	if lc.treeNodes > 1 {
		c = rp.run("tbon.down", slice, func() float64 { return tbonBurst(big.procs, 'd', max(1, 60000/int(lc.treeNodes-1))) })
		lc.downNS = c.cpuNSPerOp()
		msgAllocs, msgs = msgAllocs+c.allocs, msgs+c.ops
		res.set("tbon.down_ns_per_msg", lc.downNS, nil)
	}
	res.set("tbon.allocs_per_msg", msgAllocs/msgs, nil)
	var setupNS float64
	for _, s := range in.streams {
		c = rp.run("tbon.setup", slice/2, func() float64 {
			var b tbonBench
			newCountTree(s.procs, &b).Stop()
			return 1
		})
		setupNS += float64(c.wall)
	}
	lc.setupNS = setupNS
	for _, s := range in.streams {
		w := layerWidths(s.procs)
		nodes := 0
		for _, n := range w {
			nodes += n
		}
		lc.snapUpHops += float64(w[0] * (len(w) - 1))
		lc.snapDownHops += float64(nodes - 1)
	}
	res.set("tbon.setup_ms", setupNS/float64(len(in.streams))/1e6, nil)

	// wire: frames of a realistic payload, and the codec's gob round trip.
	const frames = 20000
	payload := gobPayload(dws.PassSend{SendProc: 3, SendTS: 1000, SrcGroup: 3, Dest: 4, Tag: 7, Kind: trace.Isend})
	var buf []byte
	c = rp.run("wire.encode", slice/4, func() float64 { buf = wireEncode(frames, payload, buf); return frames })
	res.set("wire.encode_ns_per_frame", c.nsPerOp(), nil)
	lc.frameNS = c.nsPerOp()
	c = rp.run("wire.decode", slice/4, func() float64 { return wireDecode(buf) })
	res.set("wire.decode_ns_per_frame", c.nsPerOp(), nil)
	lc.frameNS += c.nsPerOp()
	c = rp.run("wire.gob", slice/2, func() float64 { return gobRoundTrip(2000) })
	lc.gobNS = c.nsPerOp()
	res.set("wire.gob_ns_per_payload", lc.gobNS, nil)

	// The end state: root analysis from the wait reports, then the engines
	// and outputs on the snapshot.
	return lc, replayDetection(res, cfg, rp, in, harnesses, slice*4)
}

// replayDetection measures the detection root and, on a snapshot, every
// engine and output generator.
func replayDetection(res *result, cfg runConfig, rp replayer, in *layerInput, harnesses []*dwsHarness, budget time.Duration) error {
	var snap *engine.Snapshot
	var html func(dead, cycle []int, arcs int) string
	if in.deadlock {
		h := harnesses[0]
		var dr *detect.Result
		c := rp.run("detect.root", budget/8, func() float64 {
			dr = rootAnalyze(h.procs, h.reports)
			return float64(dr.Arcs)
		})
		res.set("detect.root_ns_per_arc", c.nsPerOp(), nil)
		snap = snapshotOf(h.procs, h.reports)
		html = func(dead, cycle []int, arcs int) string {
			return report.HTML(&report.Data{Procs: h.procs, Deadlocked: dead, Cycle: cycle, Entries: dr.Entries, Arcs: arcs})
		}
		if g := engine.BuildWFG(snap); g.Arcs() != dr.Arcs {
			return fmt.Errorf("snapshot rebuilt from the wait reports has %d arcs, detect.Root found %d", g.Arcs(), dr.Arcs)
		}
	} else {
		procs := pick(cfg.tiny, 512, 32)
		var infos map[int]waitstate.WaitInfo
		snap, infos = genSnapshot(cfg.seed, procs)
		html = func(dead, cycle []int, arcs int) string {
			return report.HTMLFromWaitInfo(procs, dead, cycle, infos, arcs)
		}
	}

	slice := budget / 12
	g := engine.BuildWFG(snap)
	arcs := float64(g.Arcs())
	perArc := func(name, span string, f func()) {
		c := rp.run(span, slice, func() float64 { f(); return arcs })
		res.set(name, c.nsPerOp(), nil)
	}
	perArc("engine.build_ns_per_arc", "engine.build", func() { engine.BuildWFG(snap) })
	perArc("engine.wfg_ns_per_arc", "engine.wfg", func() { engine.WFG{}.Analyze(engine.Input{Snapshot: snap}) })
	var cmh engine.Verdict
	perArc("engine.cmh_ns_per_arc", "engine.cmh", func() { cmh, _, _ = engine.CMH{}.Analyze(engine.Input{Snapshot: snap}) })
	perArc("engine.twocycle_ns_per_arc", "engine.twocycle", func() { engine.TwoCycle{}.Analyze(engine.Input{Snapshot: snap}) })
	var dead []int
	perArc("wfg.deadlocked_ns_per_arc", "wfg.deadlocked", func() { dead = g.Deadlocked() })
	if wfg := engine.Classify(snap, dead); cmh != wfg {
		return fmt.Errorf("engines disagree on the replayed snapshot: cmh %v, wfg %v", cmh, wfg)
	}
	var classes, simplified, dot, page int
	perArc("wfg.simplify_ns_per_arc", "wfg.simplify", func() {
		cg := g.Simplify(dead)
		classes = len(cg.Classes)
		var sb bytes.Buffer
		cg.DOT(&sb)
		simplified = sb.Len()
	})
	res.set("wfg.simplify_classes", float64(classes), nil)
	perArc("wfg.dot_ns_per_arc", "wfg.dot", func() { g.DOT(io.Discard, dead) })
	perArc("report.dot_ns_per_arc", "report.dot", func() { dot = len(report.DOT(g, dead)) })
	if len(dead) > 0 {
		cycle := g.Cycle(dead)
		c := rp.run("report.html", slice, func() float64 {
			page = len(html(dead, cycle, g.Arcs()))
			return float64(len(dead))
		})
		res.set("report.html_us_per_rank", c.nsPerOp()/1e3, nil)
	}
	res.set("report.bytes_out", float64(simplified+dot+page), nil)
	return nil
}
