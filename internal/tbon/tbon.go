// Package tbon implements the Tree-Based Overlay Network the tool runs on,
// the analogue of the paper's GTI infrastructure [11]: a tree of tool nodes
// with a configurable fan-in, FIFO (non-overtaking) links, downward
// broadcast, and direct intralayer links between first-layer nodes [13].
// Order-preserving aggregation [12] is built by the layers above (collective
// matching); tbon provides the guarantees those algorithms rely on:
//
//   - per-link FIFO: messages between any (sender, receiver) pair arrive in
//     send order — upward, downward, and on intralayer links;
//   - every node processes its messages in a single goroutine, so handler
//     state needs no locking;
//   - tool-internal links never deadlock: they are queues that accept
//     unboundedly, so cyclic intralayer flows (A→B while B→A) cannot wedge
//     the tool.
//
// Application ranks feed the first tool layer through InjectEvent over bounded
// links, which apply backpressure when the tool lags — the mechanism behind
// measured tool slowdown.
//
// # Faults and self-healing
//
// A Config.Fault plan (see internal/fault) turns the idealized substrate
// into an adversarial one: link pumps drop, duplicate, reorder, jitter and
// stall messages, and scheduled crashes kill tool nodes. Two defense layers
// restore the guarantees the protocols need:
//
//   - a reliable link layer (transport.go): tool messages travel in
//     sequence-numbered frames; receivers deduplicate and resequence per
//     directed link, restoring exactly-once FIFO delivery, while a
//     retransmission scanner resends unacknowledged frames with exponential
//     backoff;
//   - heartbeat supervision (supervise.go): node loops beat a liveness
//     clock; a supervisor declares silent nodes dead, reattaches their
//     children to the grandparent (migrating unacknowledged frames to the
//     new link in order), and notifies the tool via Config.OnNodeDown so
//     the protocol layers can resynchronize or degrade explicitly.
package tbon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
)

// ErrStopped is returned by InjectEvent after the tree stopped: the event was
// not delivered to the tool.
var ErrStopped = errors.New("tbon: tree stopped")

// ErrNodeDown is returned by InjectEvent when the first-layer node hosting the
// rank has crashed (fault injection): the event was not delivered.
var ErrNodeDown = errors.New("tbon: hosting tool node is down")

// Config parameterizes the tree.
type Config struct {
	// Leaves is the number of application ranks.
	Leaves int
	// FanIn is the maximum number of children per node (≥ 2; the paper
	// evaluates 2, 4 and 8).
	FanIn int
	// EventBuf is the capacity of the rank → first-layer links, in events:
	// that many injections may wait in a first-layer node's mailbox before
	// Inject blocks. Small buffers emphasize backpressure; default 256.
	EventBuf int
	// PreferWaitState makes first-layer node loops drain intralayer
	// (wait-state) messages before application events — the paper's
	// future-work mitigation for trace-window growth (Sec. 4.2).
	PreferWaitState bool
	// LinkDelay, when positive, delays every tool-internal message by this
	// duration in the queues' pump stage (simulating slow network links between
	// tool nodes). Per-link FIFO order is preserved; messages on one link
	// are serialized delay apart.
	LinkDelay time.Duration
	// Batch enables hot-path batching: a node takes a slab of up to maxSlab
	// queued messages per delivery cycle instead of one envelope per cycle,
	// node loops drain already-queued rank events opportunistically, and the
	// reliable transport acknowledges once per slab instead of once per
	// frame. Handlers implementing Flusher are flushed at the end of every
	// delivery cycle. Off by default: direct tbon users get the one-message-
	// per-op behavior; the tool layer (internal/core) always turns it on.
	Batch bool
	// Fault, when non-nil, activates the fault plane: link faults per the
	// plan's rules, scheduled node crashes, heartbeat supervision, and —
	// unless the plan disables it — the reliable link layer.
	Fault *fault.Plan
	// Net, when non-nil, activates the TCP fabric: the tree spans multiple
	// OS processes, each building this same topology but running only its
	// local nodes (see NetConfig). Mutually exclusive with Fault — over the
	// wire, the adversary is the network itself (or the wire-level fault
	// proxy), and the reliable link layer is always on. Requires at least
	// two tool layers, so the root stays coordinator-local.
	Net *NetConfig
	// OnNodeDown is invoked (from the supervisor goroutine) after a
	// crashed node was detected and its children reattached. The tool
	// uses it to resynchronize aggregation or degrade explicitly.
	OnNodeDown func(n *Node)
	// OnNodeRecovered is invoked (from the supervisor goroutine) after a
	// crashed first-layer node was respawned and its state rebuilt by
	// journal replay (fault plan with Recover). The argument is the
	// replacement node; OnNodeDown is NOT called for recovered nodes.
	OnNodeRecovered func(n *Node)
	// MemBudget bounds the resident bytes of the tool-plane buffers (queue
	// pumps and TCP send buffers) in this process: data-lane traffic is
	// byte-accounted against the budget and backpressure is applied at the
	// rank → leaf intake, while control-lane traffic (heartbeats,
	// snapshot/epoch control, supervision) is always admitted free — see
	// govern.go. 0 selects DefaultMemBudget; negative is rejected.
	MemBudget int64
}

// Handler is the per-node tool logic. All methods run on the node's
// goroutine.
type Handler interface {
	// FromRank delivers an application event from a hosted rank
	// (first-layer nodes only).
	FromRank(rank int, ev any)
	// FromChild delivers a tool message from child node index child.
	FromChild(child int, msg any)
	// FromParent delivers a broadcast/control message from the parent.
	FromParent(msg any)
	// FromPeer delivers an intralayer message (first layer only).
	FromPeer(peer int, msg any)
	// Control delivers an out-of-band message injected by the driver
	// (e.g. the timeout trigger for deadlock detection at the root).
	Control(msg any)
}

// RankEventHandler is an optional Handler extension for first-layer
// handlers: when it is implemented and batching is on, typed injections
// (InjectEvent) are delivered through FromRankEvent without boxing the
// event into an interface — the dominant per-event allocation on the hot
// path. Without it, or with batching off, typed injections fall back to
// FromRank with the historical boxed payload.
type RankEventHandler interface {
	FromRankEvent(rank int, ev event.Event)
}

// Flusher is an optional Handler extension. When the handler implements it,
// Flush runs on the node goroutine at the end of every delivery cycle —
// after a whole slab, event batch, or single message was dispatched, and
// before the loop can observe quit or a crash. Handlers that coalesce
// outgoing traffic (see internal/dws) emit it here; the ordering guarantee
// means a crashed node has always emitted the output of every input it
// processed, which the journal-replay recovery contract relies on.
type Flusher interface {
	Flush()
}

type envelope struct {
	from int
	msg  any
}

// rankEnvelope is one application-event delivery on the rank → first-layer
// link; the event travels unboxed. A quiet one (a watchdog heartbeat) is
// not outstanding work: it never defers quiescence.
type rankEnvelope struct {
	from  int
	ev    event.Event
	quiet bool
}

// units is the envelope's share of the tree's outstanding work.
func (e *rankEnvelope) units() int64 {
	if e.quiet {
		return 0
	}
	return 1
}

// timed is a queued message with its earliest delivery time.
type timed struct {
	env envelope
	due time.Time
}

// maxSlab bounds how many envelopes one delivery cycle takes from a queue
// (and how many rank events one opportunistic drain absorbs at most): large
// enough to amortize the wakeup, small enough to keep a node responsive to
// its other inputs.
const maxSlab = 128

// rankEnvPool recycles the mailbox slots' payloads: the events channel
// carries pointers, so a slot costs 8 bytes instead of a whole rankEnvelope
// and building a tree allocates no event storage up front. An envelope is
// taken at the intake (Tree.inject, the wire intake sites) and returned once
// dispatchRank consumed it.
var rankEnvPool = sync.Pool{New: func() any { return new(rankEnvelope) }}

func newRankEnv(env rankEnvelope) *rankEnvelope {
	p := rankEnvPool.Get().(*rankEnvelope)
	*p = env
	return p
}

func putRankEnv(p *rankEnvelope) {
	*p = rankEnvelope{} // release payload references before pooling
	rankEnvPool.Put(p)
}

// queue is an unbounded FIFO link: senders enqueue without ever blocking
// permanently, and the receiving node takes up to a slab of envelopes per
// delivery cycle. Admitted envelopes wait in pending; ready carries one
// token while pending is non-empty, so the node loop has a single receive
// arm per queue however the envelopes got there.
//
// Without a fault link and without a simulated link delay — every run but
// the chaos suites and the LinkDelay experiments — send appends to pending
// directly and the queue costs nothing until used: no goroutine, no timer,
// no buffer. Otherwise a pump goroutine sits in front as the fault/delay
// stage: it drains stage eagerly (delays and stalls gate delivery, never
// admission, so a stalled link cannot block its senders), applies the
// plan's decisions, and moves envelopes into pending as they fall due.
//
// Data-lane envelopes are charged to the governor at admission and released
// by takeSlab's caller once dispatched, so the charge covers the whole
// residence. Every envelope is outstanding work of the tree from send until
// the delivery cycle that consumed it ends (or the pump drops it).
type queue struct {
	t     *Tree
	class int

	mu      sync.Mutex
	pending []envelope
	sunk    bool          // the receiver died: deliveries retire at once
	ready   chan struct{} // capacity 1: the "pending is non-empty" token

	stage chan envelope // pump intake; nil when there is nothing to pump
}

func newQueue(t *Tree, fl *fault.Link, class int) *queue {
	q := &queue{t: t, class: class, ready: make(chan struct{}, 1)}
	delay := t.cfg.LinkDelay
	if fl == nil && delay == 0 {
		return q
	}
	// 64 slots decouple bursty senders from the pump's wakeup latency; the
	// pump empties the channel on every wakeup, so it never holds a backlog.
	q.stage = make(chan envelope, 64)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		q.pump(t.quit, delay, fl)
	}()
	return q
}

// send admits one envelope; it blocks only while the pump's intake is full,
// and gives up when the tree stops.
func (q *queue) send(e envelope, quit <-chan struct{}) {
	q.t.admit(1)
	if q.stage == nil {
		q.charge(e, 1)
		q.deliver(e)
		return
	}
	select {
	case q.stage <- e:
	case <-quit:
	}
}

func (q *queue) charge(e envelope, copies int) {
	if c := envCost(e.msg); c > 0 {
		for i := 0; i < copies; i++ {
			q.t.gov.charge(q.class, c)
		}
	}
}

// deliver appends (already charged) envelopes to pending and raises the
// token on the empty → non-empty edge.
func (q *queue) deliver(envs ...envelope) {
	q.mu.Lock()
	if q.sunk {
		q.mu.Unlock()
		q.t.retire(int64(len(envs)))
		return
	}
	wasEmpty := len(q.pending) == 0
	q.pending = append(q.pending, envs...)
	q.mu.Unlock()
	if wasEmpty {
		q.signal()
	}
}

func (q *queue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// takeSlab moves up to max pending envelopes into dst (reusing its storage)
// in FIFO order, re-raising the token when some remain. Called by the
// receiving node after it took the token.
func (q *queue) takeSlab(dst []envelope, max int) []envelope {
	q.mu.Lock()
	n := len(q.pending)
	if n > max {
		n = max
	}
	dst = append(dst[:0], q.pending[:n]...)
	// Compact instead of reslicing: pending[n:] would abandon the array
	// prefix, so every slab taken forces the next appends into a fresh
	// allocation. Moving the (typically empty) tail down reuses one backing
	// array for the queue's lifetime.
	rest := copy(q.pending, q.pending[n:])
	for i := rest; i < len(q.pending); i++ {
		q.pending[i] = envelope{} // release payload references
	}
	q.pending = q.pending[:rest]
	q.mu.Unlock()
	if rest > 0 {
		q.signal()
	}
	return dst
}

// pump is the fault/delay stage of a queue: it decides each staged
// envelope's fate (drop, duplicate, reorder, delay, stall) and delivers the
// survivors when they fall due.
func (q *queue) pump(quit <-chan struct{}, delay time.Duration, fl *fault.Link) {
	var buf []timed
	var lastDue time.Time
	var stallUntil time.Time
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	admit := func(e envelope) {
		now := time.Now()
		var d fault.Decision
		if fl != nil {
			d = fl.Decide(innerMsg(e.msg))
		}
		if d.Stall > 0 {
			if until := now.Add(d.Stall); until.After(stallUntil) {
				stallUntil = until
			}
		}
		if d.Drop {
			q.t.retire(1)
			return
		}
		due := now
		if delay > 0 {
			// Serialize: each message occupies the link for `delay`.
			base := now
			if lastDue.After(base) {
				base = lastDue
			}
			due = base.Add(delay)
			lastDue = due
		}
		if d.Delay > 0 {
			due = due.Add(d.Delay)
		}
		if stallUntil.After(due) {
			due = stallUntil
		}
		copies := 1
		if d.Dup {
			copies = 2
			q.t.admit(1)
		}
		q.charge(e, copies)
		first := len(buf)
		for i := 0; i < copies; i++ {
			buf = append(buf, timed{env: e, due: due})
		}
		if d.Reorder && first >= 1 {
			// The new message overtakes its predecessor (dues stay in
			// place so head wakeups remain monotone).
			buf[first-1].env, buf[first].env = buf[first].env, buf[first-1].env
		}
	}
	var due []envelope
	for {
		var timerCh <-chan time.Time
		if len(buf) > 0 {
			now := time.Now()
			n := 0
			for n < len(buf) && !buf[n].due.After(now) {
				n++
			}
			if n > 0 {
				due = due[:0]
				for i := 0; i < n; i++ {
					due = append(due, buf[i].env)
				}
				q.deliver(due...)
				rest := copy(buf, buf[n:])
				for i := rest; i < len(buf); i++ {
					buf[i] = timed{}
				}
				buf = buf[:rest]
			}
		}
		if len(buf) > 0 {
			if timerArmed && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(time.Until(buf[0].due))
			timerArmed = true
			timerCh = timer.C
		}
		select {
		case e := <-q.stage:
			admit(e)
			// Drain the intake opportunistically: senders that raced the
			// wakeup are decided together (which is also what lets a
			// Reorder decision find its predecessor still here).
		drain:
			for i := 1; i < maxSlab; i++ {
				select {
				case e := <-q.stage:
					admit(e)
				default:
					break drain
				}
			}
		case <-timerCh:
			timerArmed = false
		case <-quit:
			return
		}
	}
}

// Node is one tool process in the tree.
type Node struct {
	tree  *Tree
	layer int // 0 = first tool layer
	index int
	gid   int // global node id, unique across layers
	// local reports whether this node runs in this process (always true
	// without a TCP fabric). Remote nodes are topology placeholders: no
	// queues, no loop, no handler — frames addressed to them cross the wire.
	local bool

	// parent and children are guarded by tree.topo: reattachment after a
	// crash rewires them at runtime.
	parent   *Node
	children []*Node

	events    chan *rankEnvelope // app events (layer 0; EventBuf pooled slots)
	fromBelow *queue             // tool messages from children / self
	fromAbove *queue             // broadcasts from parent
	fromPeer  *queue             // intralayer (layer 0)
	control   chan envelope
	// slab is the node goroutine's scratch for one delivery cycle's
	// envelopes (see queue.takeSlab); taken counts the cycle's counted
	// envelopes, retired together when the cycle ends.
	slab  []envelope
	taken int64

	handler Handler
	// flusher and rankHandler cache the handler's optional extensions (set
	// alongside handler, before the loop starts). rankHandler is non-nil
	// only with batching on: off reproduces the boxed legacy delivery.
	flusher     Flusher
	rankHandler RankEventHandler

	// rsq resequences reliable frames per incoming directed link; it is
	// touched only by the node goroutine.
	rsq map[linkKey]*reseq

	// ackPend accumulates the per-link cumulative acknowledgements of one
	// delivery cycle, flushed in one transport pass at cycle end (batching
	// with reliable transport only; nil means every frame acks immediately).
	// ackKeys mirrors the map keys so the flush allocates nothing. Both are
	// touched only by the node goroutine.
	ackPend map[linkKey]uint64
	ackKeys []linkKey

	// lastBeat is the liveness clock (UnixNano), updated by the node loop
	// and read by the supervisor.
	lastBeat atomic.Int64
	// dead is closed when the node crashes (scheduled or declared).
	dead     chan struct{}
	deadOnce sync.Once
	// reaped marks that the supervisor already handled this death.
	reaped atomic.Bool

	// loopDone is closed when the node's loop goroutine exits; recovery
	// waits on it so journal replay never races a limping zombie.
	loopDone chan struct{}
	// respawned is closed once the slot's fate after a crash is settled:
	// either a replacement took over the topology maps (Inject retries
	// against it) or recovery failed and the slot degraded (Inject gives
	// up with ErrNodeDown).
	respawned chan struct{}
}

// Tree is the whole overlay.
type Tree struct {
	cfg      Config
	layers   [][]*Node
	leafNode []*Node // leafNode[rank] hosts the rank

	// topo guards every node's parent/children pointers (crash
	// reattachment mutates them) and, on the TCP fabric, gidIndex plus
	// per-node gids (supervised respawn re-gids leaves in place). Readers
	// that resolve gids take RLock. Lock order: topo before transport.mu.
	topo sync.RWMutex

	injector  *fault.Injector
	transport *transport // nil unless the reliable link layer is active
	net       *netFabric // nil unless the TCP fabric is active
	gov       *governor
	gidIndex  map[int]*Node

	// nextGid hands out fresh global ids to respawned replacement nodes
	// (guarded by topo); mkHandler is retained from Start so a replacement
	// can rebuild its tool layer. recoveries counts successful respawns.
	nextGid    int
	mkHandler  func(n *Node) Handler
	recoveries atomic.Uint64

	// work is the outstanding-work word (see admit); idleAt stamps the
	// edge that opened its idle epoch (epoch bits, then µs since born);
	// wantIdle arms the one-shot notification idleCh carries (NotifyIdle).
	work     atomic.Uint64
	idleAt   atomic.Uint64
	born     time.Time
	wantIdle atomic.Bool
	idleCh   chan struct{}

	quit chan struct{}
	wg   sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds the tree topology (without starting node loops). It panics on
// invalid configuration; trees with a TCP fabric should prefer NewNet,
// which surfaces network setup as an error.
func New(cfg Config) *Tree {
	t, err := NewNet(cfg)
	if err != nil {
		panic("tbon: " + err.Error())
	}
	return t
}

// NewNet builds the tree topology like New, returning configuration and
// network setup problems (a busy listen address, a bad role) as errors.
// With Config.Net set, only this process's local nodes get queues and
// loops; the rest of the topology is placeholders the fabric routes past.
func NewNet(cfg Config) (*Tree, error) {
	if cfg.Leaves <= 0 {
		panic("tbon: Leaves must be positive")
	}
	if cfg.FanIn < 2 {
		panic("tbon: FanIn must be at least 2")
	}
	if cfg.EventBuf == 0 {
		cfg.EventBuf = 256
	}
	if cfg.MemBudget == 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	if cfg.MemBudget < 0 {
		return nil, fmt.Errorf("MemBudget must not be negative (got %d; 0 selects the default)", cfg.MemBudget)
	}
	width0 := (cfg.Leaves + cfg.FanIn - 1) / cfg.FanIn
	if nc := cfg.Net; nc != nil {
		if cfg.Fault != nil {
			return nil, errors.New("fault plan and TCP fabric are mutually exclusive (use the wire-level fault proxy)")
		}
		if width0 < 2 {
			return nil, fmt.Errorf("TCP fabric needs at least two first-layer nodes (got %d): the root must stay coordinator-local", width0)
		}
		if nc.Workers < 1 || nc.Workers > width0 {
			return nil, fmt.Errorf("NetConfig.Workers must be in [1, %d], at most one worker per first-layer node (got %d)", width0, nc.Workers)
		}
		if nc.Role == NetWorker && (nc.Worker < 0 || nc.Worker >= nc.Workers) {
			return nil, fmt.Errorf("NetConfig.Worker %d out of range [0,%d)", nc.Worker, nc.Workers)
		}
	}
	isLocal := func(layer, idx int) bool {
		nc := cfg.Net
		if nc == nil {
			return true
		}
		if nc.Role == NetCoordinator {
			return layer > 0
		}
		return layer == 0 && ownerOfLeaf(idx, width0, nc.Workers) == nc.Worker
	}
	t := &Tree{cfg: cfg, quit: make(chan struct{}), idleCh: make(chan struct{}, 1), born: time.Now()}
	t.gov = newGovernor(cfg.MemBudget)
	if cfg.Fault != nil {
		t.injector = fault.NewInjector(cfg.Fault)
	}
	if cfg.Net != nil || (cfg.Fault != nil && !cfg.Fault.DisableRetransmit) {
		t.transport = newTransport(t, cfg.Fault)
	}
	gid := 0
	width := width0
	prevWidth := 0
	layer := 0
	for {
		nodes := make([]*Node, width)
		for i := range nodes {
			n := &Node{
				tree:      t,
				layer:     layer,
				index:     i,
				gid:       gid,
				local:     isLocal(layer, i),
				control:   make(chan envelope, 16),
				dead:      make(chan struct{}),
				rsq:       make(map[linkKey]*reseq),
				loopDone:  make(chan struct{}),
				respawned: make(chan struct{}),
			}
			if n.local {
				n.fromBelow = newQueue(t, t.faultLink(gid, fault.UpLink), govUp)
				n.fromAbove = newQueue(t, t.faultLink(gid, fault.DownLink), govDown)
			}
			gid++
			if layer == 0 {
				if n.local {
					n.events = make(chan *rankEnvelope, cfg.EventBuf)
					n.fromPeer = newQueue(t, t.faultLink(n.gid, fault.PeerLink), govPeer)
				}
			} else {
				lo := i * cfg.FanIn
				hi := lo + cfg.FanIn
				if hi > prevWidth {
					hi = prevWidth
				}
				for c := lo; c < hi; c++ {
					n.children = append(n.children, t.layers[layer-1][c])
				}
			}
			nodes[i] = n
		}
		t.layers = append(t.layers, nodes)
		if layer > 0 {
			for _, child := range t.layers[layer-1] {
				child.parent = nodes[child.index/cfg.FanIn]
			}
		}
		if width == 1 {
			break
		}
		prevWidth = width
		width = (width + cfg.FanIn - 1) / cfg.FanIn
		layer++
	}

	t.nextGid = gid

	// A worker joining (or rejoining) after a supervised respawn must adopt
	// the coordinator's current first-layer gid assignment: the default
	// identity mapping would address gids retired by earlier respawns.
	if nc := cfg.Net; nc != nil && nc.Role == NetWorker && len(nc.LeafGids) == width0 {
		for i, n := range t.layers[0] {
			n.gid = nc.LeafGids[i]
			if n.gid >= t.nextGid {
				t.nextGid = n.gid + 1
			}
		}
	}

	t.leafNode = make([]*Node, cfg.Leaves)
	for r := 0; r < cfg.Leaves; r++ {
		t.leafNode[r] = t.layers[0][r/cfg.FanIn]
	}
	if cfg.Net != nil {
		t.gidIndex = make(map[int]*Node, gid)
		for _, l := range t.layers {
			for _, n := range l {
				t.gidIndex[n.gid] = n
			}
		}
		if err := t.startNet(); err != nil {
			close(t.quit) // release the queue pumps already spawned
			t.wg.Wait()
			return nil, err
		}
	}
	return t, nil
}

// slabCap is the per-cycle delivery batch for the tree's queues: maxSlab
// with batching, 1 (one envelope per cycle, the historical behavior)
// without.
func (t *Tree) slabCap() int {
	if t.cfg.Batch {
		return maxSlab
	}
	return 1
}

// arm finishes a node's handler wiring before its loop starts: the cached
// Flusher and, when batching rides the reliable transport, the per-cycle
// acknowledgement accumulator.
func (t *Tree) arm(n *Node) {
	n.flusher, _ = n.handler.(Flusher)
	if t.cfg.Batch {
		n.rankHandler, _ = n.handler.(RankEventHandler)
	}
	if t.cfg.Batch && t.transport != nil {
		n.ackPend = make(map[linkKey]uint64)
	}
}

// Start launches one goroutine per node (plus, with a fault plan, the
// retransmission scanner, crash timers and the heartbeat supervisor).
// mkHandler constructs the handler for each node before any message flows.
func (t *Tree) Start(mkHandler func(n *Node) Handler) {
	t.startOnce.Do(func() {
		t.mkHandler = mkHandler
		for _, layer := range t.layers {
			for _, n := range layer {
				if !n.local {
					continue // remote nodes run in their own process
				}
				n.handler = mkHandler(n)
				t.arm(n)
			}
		}
		for _, layer := range t.layers {
			for _, n := range layer {
				if !n.local {
					continue
				}
				t.wg.Add(1)
				go n.loop()
			}
		}
		if t.transport != nil {
			t.wg.Add(1)
			go t.transport.run()
		}
		if t.cfg.Fault != nil {
			t.startCrashTimers()
			if t.cfg.Fault.Supervised() {
				t.wg.Add(1)
				go t.supervise()
			}
		}
	})
}

// Stop terminates all node loops and pumps and waits for them. With a
// coordinator fabric it first asks every reachable worker to stop and
// collects their final reports (see WorkerFinals), then tears the fabric
// down.
func (t *Tree) Stop() {
	if t.net != nil && t.net.role == NetCoordinator {
		t.net.shutdownOnce.Do(t.net.shutdownWorkers)
	}
	t.stopOnce.Do(func() { close(t.quit) })
	t.wg.Wait()
	if t.net != nil {
		t.net.close()
	}
}

// InjectEvent delivers an application event to the first-layer node hosting
// the rank. It blocks when the node's event queue is full (backpressure). It
// returns ErrStopped after the tree stopped and ErrNodeDown when the
// hosting node crashed; in both cases the event was not delivered. The
// event reaches a RankEventHandler without ever being boxed into an
// interface, making the batched intake allocation-free per event. With
// batching off (or a plain Handler) it is delivered boxed through FromRank.
func (t *Tree) InjectEvent(rank int, ev event.Event) error {
	return t.inject(rank, rankEnvelope{ev: ev})
}

// InjectEventQuiet delivers an application event like InjectEvent but
// without counting it as outstanding work, so periodic probes (watchdog
// heartbeats, which the handler turns into no messages) never defer
// quiescence. FIFO order with regular events is preserved — both travel the
// same per-rank link.
func (t *Tree) InjectEventQuiet(rank int, ev event.Event) error {
	return t.inject(rank, rankEnvelope{ev: ev, quiet: true})
}

// inject implements InjectEvent(Quiet). The leafNode read is topology-
// guarded because crash recovery swaps the hosting node at runtime. When
// the hosting node is dead and the tree can recover it, the injector waits
// for the slot's fate instead of dropping the event: the replacement
// adopts the slot's mailbox, so a successful respawn preserves per-rank
// FIFO with zero dropped events.
func (t *Tree) inject(rank int, env rankEnvelope) error {
	env.from = rank
	for {
		t.topo.Lock()
		n := t.leafNode[rank]
		t.topo.Unlock()
		if !n.local {
			// Remote hosting node (coordinator of a TCP fabric): the event
			// crosses the wire on a sequenced RankLink frame, gated by the
			// per-leaf window so backpressure still reaches the rank.
			return t.injectRemote(n, env)
		}
		// Resource-governor backpressure: when tool-plane buffers approach
		// the budget, the data-lane intake gate closes and ranks wait here —
		// the global, byte-denominated analogue of the bounded events
		// channel below. Quiet (watchdog) injections bypass the gate so
		// liveness probes keep flowing through an overloaded tree.
		if !env.quiet && !t.gov.admitIntake(n.dead, t.quit) {
			return ErrStopped
		}
		slot := newRankEnv(env)
		// Counted before it can be dispatched; taken back if it never lands.
		u := env.units()
		t.admit(u)
		// Common case first — a live node with room in its mailbox — as two
		// non-blocking channel operations instead of a three-way select.
		if !n.Dead() {
			select {
			case n.events <- slot:
				return nil
			default:
			}
		}
		select {
		case n.events <- slot:
			return nil
		case <-n.dead:
			putRankEnv(slot)
			t.retire(u)
			if !t.recoveryEnabled() {
				return ErrNodeDown
			}
			select {
			case <-n.respawned:
			case <-t.quit:
				return ErrStopped
			}
			t.topo.Lock()
			cur := t.leafNode[rank]
			t.topo.Unlock()
			if cur == n {
				return ErrNodeDown // recovery failed: slot degraded
			}
			// A replacement took over: retry against it.
		case <-t.quit:
			putRankEnv(slot)
			return ErrStopped
		}
	}
}

// The outstanding-work word makes quiescence a counted fact. Bits 0–27
// count envelopes admitted to a local queue, mailbox or control channel and
// not yet retired (plus, on a TCP coordinator, each worker slot not known
// idle: markBusy); bits 28–47 count reliable frames not yet acknowledged;
// bits 48–63 are the idle epoch, bumped by the retire that empties both
// counts. An envelope is retired after the cycle that consumed it ran
// endCycle — its acks and its handler's output already counted — so the
// counts are zero only when no handler runs and nothing is staged, queued
// or unacknowledged here.
const (
	frameUnit  = 1 << 28
	epochUnit  = 1 << 48
	countsMask = epochUnit - 1
)

// admit counts n units of outstanding work (frameUnit per frame), always
// before the work can be retired.
func (t *Tree) admit(n int64) { t.work.Add(uint64(n)) }

// retire discounts n units. The retire that empties both counts opens a new
// idle epoch and announces the edge to whoever asked: the armed waiter of
// NotifyIdle and, on a TCP worker, the stats reporter.
func (t *Tree) retire(n int64) {
	for n != 0 {
		old := t.work.Load()
		v := old - uint64(n)
		if v&countsMask == 0 {
			v += epochUnit
		}
		if t.work.CompareAndSwap(old, v) {
			if v&countsMask == 0 {
				t.stampIdle(v)
				t.wake()
				if fab := t.net; fab != nil && fab.role == NetWorker {
					fab.kickStats()
				}
			}
			return
		}
	}
}

// stampIdle records when idle epoch v began. A retire that lost the race to
// a later edge must not overwrite that edge's stamp: the epoch it reads
// would never match the word again.
func (t *Tree) stampIdle(v uint64) {
	s := v | uint64(time.Since(t.born)/time.Microsecond)
	for old := t.idleAt.Load(); int16(uint16(s>>48)-uint16(old>>48)) > 0; old = t.idleAt.Load() {
		if t.idleAt.CompareAndSwap(old, s) {
			return
		}
	}
}

// wake hands the armed waiter its token; never blocks.
func (t *Tree) wake() {
	if t.wantIdle.Load() && t.wantIdle.CompareAndSwap(true, false) {
		select {
		case t.idleCh <- struct{}{}:
		default:
		}
	}
}

// Idle reports whether the tree (on a TCP coordinator: with every worker)
// has no outstanding work and, if so, since when: the stamp of the edge
// that opened the idle epoch, or now while that stamp is still unwritten.
func (t *Tree) Idle() (since time.Time, idle bool) {
	v := t.work.Load()
	if v&countsMask != 0 {
		return time.Time{}, false
	}
	since = time.Now()
	if s := t.idleAt.Load(); s&^countsMask == v {
		since = t.born.Add(time.Duration(s&countsMask) * time.Microsecond)
	}
	return since, true
}

// NotifyIdle arms a one-shot notification of the next busy → idle edge (at
// once when idle already). A token can be stale: re-check Idle. One waiter
// at a time.
func (t *Tree) NotifyIdle() <-chan struct{} {
	select {
	case <-t.idleCh:
	default:
	}
	t.wantIdle.Store(true)
	if _, idle := t.Idle(); idle {
		t.wake()
	}
	return t.idleCh
}

// Retransmits returns the number of frames the reliable link layer resent
// (0 without a fault plan).
func (t *Tree) Retransmits() uint64 {
	if t.transport == nil {
		return 0
	}
	return t.transport.retransmits.Load()
}

// Abandoned returns the number of frames the reliable link layer gave up
// on after exhausting retransmission attempts.
func (t *Tree) Abandoned() uint64 {
	if t.transport == nil {
		return 0
	}
	return t.transport.abandoned.Load()
}

// Counters returns this process's tool-plane counters. On a TCP-fabric
// coordinator they cover only coordinator-local links and buffers; each
// worker's arrive in its WorkerFinal report, to be folded in by the caller.
func (t *Tree) Counters() Counters {
	gs := t.gov.stats()
	c := Counters{
		Retransmits:     t.Retransmits(),
		AbandonedFrames: t.Abandoned(),
		Recoveries:      int(t.recoveries.Load()),
		MemHighWater:    gs.HighWater,
		OverflowEvents:  gs.Overflow,
		GatedWaits:      gs.Gated,
		QueueDepthHW:    gs.QueueDepthHW,
		QueueBytesHW:    gs.QueueBytesHW,
	}
	if fab := t.net; fab != nil {
		c.Reconnects = fab.reconnects.Load()
		c.CodecErrors = fab.codecErrors.Load()
		c.BytesOnWire = fab.bytesOut.Load() + fab.bytesIn.Load()
		c.WorkerRespawns = fab.respawns.Load()
		c.ShippedJournalEntries = fab.shippedEntries.Load()
	}
	return c
}

// FirstLayer returns the first tool layer.
func (t *Tree) FirstLayer() []*Node { return t.layers[0] }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.layers[len(t.layers)-1][0] }

// Layers returns the number of tool layers.
func (t *Tree) Layers() int { return len(t.layers) }

// NumNodes returns the total number of tool nodes.
func (t *Tree) NumNodes() int {
	n := 0
	for _, l := range t.layers {
		n += len(l)
	}
	return n
}

// NodeFor returns the index of the first-layer node hosting rank.
func (t *Tree) NodeFor(rank int) int { return rank / t.cfg.FanIn }

// RanksOf returns the application ranks hosted by first-layer node idx.
func (t *Tree) RanksOf(idx int) []int {
	lo := idx * t.cfg.FanIn
	hi := lo + t.cfg.FanIn
	if hi > t.cfg.Leaves {
		hi = t.cfg.Leaves
	}
	ranks := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// Control injects an out-of-band message into a node. Safe from any
// goroutine.
func (t *Tree) Control(n *Node, msg any) {
	t.admit(1)
	select {
	case n.control <- envelope{msg: msg}:
	case <-t.quit:
	}
}

// --- Node methods (callable from the node's handler) ---

// Layer returns the node's layer (0 = first tool layer).
func (n *Node) Layer() int { return n.layer }

// Index returns the node's index within its layer.
func (n *Node) Index() int { return n.index }

// IsRoot reports whether this node is the tree root.
func (n *Node) IsRoot() bool { return n.layer == len(n.tree.layers)-1 }

// IsFirstLayer reports whether this node is in the first tool layer.
func (n *Node) IsFirstLayer() bool { return n.layer == 0 }

// Children returns the current child node indices (empty on the first
// layer). After crash reattachment the list may span layers.
func (n *Node) Children() []int {
	n.tree.topo.Lock()
	defer n.tree.topo.Unlock()
	idx := make([]int, len(n.children))
	for i, c := range n.children {
		idx[i] = c.index
	}
	return idx
}

// NumPeers returns the number of first-layer nodes.
func (n *Node) NumPeers() int { return len(n.tree.layers[0]) }

// Tree returns the owning tree.
func (n *Node) Tree() *Tree { return n.tree }

// SendUp sends a tool message to the parent. On the root, the message is
// delivered back to the root itself via FromChild(own index) — aggregation
// logic then works uniformly on trees of any depth.
func (n *Node) SendUp(msg any) {
	t := n.tree
	t.topo.Lock()
	target := n.parent
	if target == nil {
		target = n
	}
	env := envelope{from: n.index, msg: msg}
	if t.transport != nil {
		env = t.transport.wrap(n, target, fault.UpLink, env)
	}
	t.topo.Unlock()
	t.transmit(target, fault.UpLink, env)
}

// Broadcast sends a message down to all children; first-layer nodes have no
// children, so handlers there act on the message instead of forwarding.
func (n *Node) Broadcast(msg any) {
	if n.layer == 0 {
		return
	}
	t := n.tree
	t.topo.Lock()
	targets := make([]*Node, len(n.children))
	copy(targets, n.children)
	envs := make([]envelope, len(targets))
	for i, c := range targets {
		envs[i] = envelope{msg: msg}
		if t.transport != nil {
			envs[i] = t.transport.wrap(n, c, fault.DownLink, envs[i])
		}
	}
	t.topo.Unlock()
	for i, c := range targets {
		t.transmit(c, fault.DownLink, envs[i])
	}
}

// SendPeer sends an intralayer message to first-layer node peer (self-sends
// are delivered through the queue, keeping handlers single-threaded).
func (n *Node) SendPeer(peer int, msg any) {
	if n.layer != 0 {
		panic(fmt.Sprintf("tbon: intralayer send from layer %d", n.layer))
	}
	t := n.tree
	// The target read shares the topo critical section with the transport
	// wrap: crash recovery swaps first-layer slots at runtime, and the
	// frame must be sequenced on the link of whichever incarnation the
	// send resolves to (migration re-keys it atomically otherwise).
	t.topo.Lock()
	target := t.layers[0][peer]
	env := envelope{from: n.index, msg: msg}
	if t.transport != nil {
		env = t.transport.wrap(n, target, fault.PeerLink, env)
	}
	t.topo.Unlock()
	t.transmit(target, fault.PeerLink, env)
}

// transmit delivers one (possibly framed) envelope to its target: through
// the in-process queue when the target lives here, across the wire
// otherwise. Remote envelopes are always frames — the TCP fabric implies
// the reliable layer.
func (t *Tree) transmit(target *Node, class fault.Class, env envelope) {
	if target.local {
		target.inbox(class).send(env, t.quit)
		return
	}
	t.net.sendData(env)
}

// loop is the node's message pump.
func (n *Node) loop() {
	defer n.tree.wg.Done()
	defer close(n.loopDone)
	quit := n.tree.quit
	var hbC <-chan time.Time
	supervised := n.tree.cfg.Fault != nil && n.tree.cfg.Fault.Supervised()
	if supervised {
		tick := time.NewTicker(n.tree.cfg.Fault.HeartbeatInterval())
		defer tick.Stop()
		hbC = tick.C
		n.lastBeat.Store(time.Now().UnixNano())
	}
	for {
		if supervised {
			n.lastBeat.Store(time.Now().UnixNano())
		}
		if n.layer == 0 {
			// Wait-state priority: handle intralayer and parent messages
			// before new application events when configured.
			if n.tree.cfg.PreferWaitState {
				select {
				case <-n.fromPeer.ready:
					n.dispatchSlab(n.fromPeer, n.dispatchPeer)
					n.endCycle()
					continue
				case <-n.fromAbove.ready:
					n.dispatchSlab(n.fromAbove, n.dispatchParent)
					n.endCycle()
					continue
				default:
				}
			}
			select {
			case env := <-n.control:
				n.taken++
				n.handler.Control(env.msg)
			case <-n.fromPeer.ready:
				n.dispatchSlab(n.fromPeer, n.dispatchPeer)
			case <-n.fromAbove.ready:
				n.dispatchSlab(n.fromAbove, n.dispatchParent)
			case <-n.fromBelow.ready:
				n.dispatchSlab(n.fromBelow, n.dispatchChild)
			case env := <-n.events:
				n.dispatchRank(env)
				n.drainEvents()
			case <-hbC:
			case <-n.dead:
				n.bury()
				return
			case <-quit:
				return
			}
			n.endCycle()
			continue
		}
		select {
		case env := <-n.control:
			n.taken++
			n.handler.Control(env.msg)
		case <-n.fromAbove.ready:
			n.dispatchSlab(n.fromAbove, n.dispatchParent)
		case <-n.fromBelow.ready:
			n.dispatchSlab(n.fromBelow, n.dispatchChild)
		case <-hbC:
		case <-n.dead:
			n.bury()
			return
		case <-quit:
			return
		}
		n.endCycle()
	}
}

// endCycle closes one delivery cycle: flush the batched acknowledgements,
// then the handler's coalesced output, then retire the cycle's envelopes —
// last, so everything they caused is counted before they stop counting.
// Runs before the loop can observe quit or a crash, so a dead node has
// always emitted the output of every input it dispatched.
func (n *Node) endCycle() {
	n.flushAcks()
	if n.flusher != nil {
		n.flusher.Flush()
	}
	n.tree.retire(n.taken)
	n.taken = 0
}

// bury retires what a crashed node will never take: its queues become
// drains (deliver retires what arrives) and, unless a replacement will
// adopt them (recovery), so do its mailbox and control channel.
func (n *Node) bury() {
	for _, q := range []*queue{n.fromBelow, n.fromAbove, n.fromPeer} {
		if q == nil {
			continue // interior nodes have no peer queue
		}
		q.mu.Lock()
		q.sunk = true
		pend := len(q.pending)
		q.pending = nil
		q.mu.Unlock()
		n.tree.retire(int64(pend))
	}
	if n.tree.recoveryEnabled() {
		return
	}
	for {
		select {
		case env := <-n.events:
			n.tree.retire(env.units())
			putRankEnv(env)
		case <-n.control:
			n.tree.retire(1)
		case <-n.tree.quit:
			return
		}
	}
}

// dispatchSlab runs one delivery cycle on a queue whose token the loop just
// took: up to slabCap envelopes are dispatched in order and their governor
// charges released (they are no longer tool-plane residents once the handler
// consumed them).
func (n *Node) dispatchSlab(q *queue, fn func(envelope)) {
	n.slab = q.takeSlab(n.slab, n.tree.slabCap())
	n.taken += int64(len(n.slab))
	for _, env := range n.slab {
		fn(env)
	}
	for i, env := range n.slab {
		if c := envCost(env.msg); c > 0 {
			q.t.gov.release(q.class, c)
		}
		n.slab[i] = envelope{} // release payload references
	}
}

// dispatchRank delivers one mailbox slot to the handler and returns the
// slot to the pool.
func (n *Node) dispatchRank(env *rankEnvelope) {
	defer putRankEnv(env)
	n.taken += env.units()
	if n.rankHandler != nil {
		n.rankHandler.FromRankEvent(env.from, env.ev)
		return
	}
	// Config.Batch off, or a handler without the typed extension: box at
	// delivery, the historical per-event shape.
	n.handler.FromRank(env.from, env.ev)
}

// maxEventDrain bounds how many rank events one delivery cycle absorbs.
// Deliberately much smaller than maxSlab: every drained event opens
// wait-state work whose handshake messages only flush at cycle end, so a
// large gulp inflates the live trace window (and the matching engines'
// memory) for little extra amortization.
const maxEventDrain = 16

// drainEvents opportunistically consumes rank events already sitting in
// the mailbox so one cycle (and one coalescing flush) covers them all.
// Bounded so the node stays responsive to its other inputs; batching only.
func (n *Node) drainEvents() {
	if !n.tree.cfg.Batch {
		return
	}
	for i := 1; i < maxEventDrain; i++ {
		select {
		case env := <-n.events:
			n.dispatchRank(env)
		default:
			return
		}
	}
}

func (n *Node) dispatchPeer(env envelope) {
	n.deliver(env, func(e envelope) {
		n.handler.FromPeer(e.from, e.msg)
	})
}

func (n *Node) dispatchParent(env envelope) {
	n.deliver(env, func(e envelope) {
		n.handler.FromParent(e.msg)
	})
}

func (n *Node) dispatchChild(env envelope) {
	n.deliver(env, func(e envelope) {
		n.handler.FromChild(e.from, e.msg)
	})
}

// innerMsg unwraps a transport frame for fault Match predicates.
func innerMsg(msg any) any {
	if f, ok := msg.(frame); ok {
		return f.msg
	}
	return msg
}
