// Package tbon implements the Tree-Based Overlay Network the tool runs on,
// the analogue of the paper's GTI infrastructure [11]: a tree of tool nodes
// with a configurable fan-in, FIFO (non-overtaking) links, downward
// broadcast, and direct intralayer links between first-layer nodes [13].
// Order-preserving aggregation [12] is built by the layers above (collective
// matching); tbon provides the guarantees those algorithms rely on:
//
//   - per-link FIFO: messages between any (sender, receiver) pair arrive in
//     send order — upward, downward, and on intralayer links;
//   - every node processes its messages one step at a time: the tree's
//     GOMAXPROCS workers drain one run queue of nodes with work, and a node
//     is stepped by at most one of them at a time, so handler state needs
//     no locking;
//   - tool-internal links never deadlock: they are queues that accept
//     unboundedly, so cyclic intralayer flows (A→B while B→A) cannot wedge
//     the tool.
//
// Application ranks feed the first tool layer through InjectEvent. The
// intake holds a rank's next call while its first-layer node is behind
// (intake.go) — the backpressure behind measured tool slowdown, and what
// bounds the trace window.
//
// # Faults and self-healing
//
// A Config.Fault plan (see internal/fault) turns the idealized substrate
// into an adversarial one: link pumps drop, duplicate, reorder, jitter and
// stall messages, and crashes kill tool nodes at counted envelopes. Two
// defense layers restore the guarantees the protocols need:
//
//   - a reliable link layer (transport.go): tool messages travel in
//     sequence-numbered frames; receivers deduplicate and resequence per
//     directed link, restoring exactly-once FIFO delivery, while a
//     retransmission scanner resends unacknowledged frames with exponential
//     backoff;
//   - crash supervision (supervise.go): Kill wakes a supervisor that, once
//     the killed node's loop stopped dispatching, reattaches its children
//     to the grandparent (migrating unacknowledged frames to the new link
//     in order) and notifies the tool via Config.OnNodeDown so the protocol
//     layers can resynchronize or degrade explicitly.
package tbon

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
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
	// EventBuf is how many operations a first-layer node may hold per
	// hosted rank: a rank's next call (Enter event) waits in InjectEvent
	// while its node holds EventBuf × hosted ranks operations — events not
	// yet dispatched plus the trace-window records its Holder reports — and
	// the tool is still working on them (see intake.go). On a TCP fabric it
	// is the coordinator's per-leaf frame window instead. Default
	// DefaultEventBuf (128).
	EventBuf int
	// LinkDelay, when positive, delays every tool-internal message by this
	// duration in the queues' pump stage (simulating slow network links between
	// tool nodes). Per-link FIFO order is preserved; messages on one link
	// are serialized delay apart.
	LinkDelay time.Duration
	// Batch enables hot-path batching: a node takes a slab of up to maxSlab
	// queued messages from each queue per delivery cycle instead of one,
	// node steps drain already-queued rank events opportunistically, and the
	// reliable transport acknowledges once per slab instead of once per
	// frame. Handlers implementing Flusher are flushed at the end of every
	// delivery cycle. Off by default: direct tbon users get the one-message-
	// per-op behavior; the tool layer (internal/core) always turns it on.
	Batch bool
	// Fault, when non-nil, activates the fault plane: link faults per the
	// plan's rules, scheduled node crashes and their supervision, and —
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
	// MemBudget is the byte budget of the tool-plane buffers (queue pumps
	// and TCP send buffers) in this process: data-lane traffic is
	// byte-accounted against it and an admission past it counts as
	// overflow, while control-lane traffic (snapshot/epoch control,
	// supervision) is always admitted free — see govern.go. It makes no
	// rank wait. 0 selects DefaultMemBudget; negative is rejected.
	MemBudget int64
}

// Handler is the per-node tool logic. A node's methods run one at a time,
// inside its steps (see Node.step).
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

// Holder is an optional first-layer Handler extension: Held reports how
// many operations the handler holds (its trace window). The intake counts
// them with the events not yet dispatched against the EventBuf bound, and
// reads Held at the end of every delivery cycle.
type Holder interface {
	Held() int
}

// Flusher is an optional Handler extension. When the handler implements it,
// Flush runs at the end of every delivery cycle — after a whole slab, event
// batch, or single message was dispatched, and before the step can observe
// a crash. Handlers that coalesce outgoing traffic (see internal/dws) emit
// it here; the ordering guarantee means a crashed node has always emitted
// the output of every input it processed, which the journal-replay
// recovery contract relies on.
type Flusher interface {
	Flush()
}

type envelope struct {
	from int
	msg  any
}

// rankEnvelope is one application-event delivery on the rank → first-layer
// link; the event travels unboxed and is stored by value (intake.go).
type rankEnvelope struct {
	from int
	ev   event.Event
}

// timed is a queued message with its earliest delivery time.
type timed struct {
	env envelope
	due time.Time
}

// maxSlab bounds how many envelopes one delivery cycle takes from a queue:
// large enough to amortize the wakeup, small enough to keep a node
// responsive to its other inputs.
const maxSlab = 128

// queue is an unbounded FIFO link: senders enqueue without ever blocking
// permanently, and the receiving node takes up to a slab of envelopes per
// delivery cycle. Admitted envelopes wait in pending; the empty → non-empty
// edge raises the receiving node (Node.raise), which queues it for a step
// that serves all its tool links however the envelopes got there.
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
	pending []envelope // pending[head:] waits; empty means len 0
	head    int
	sunk    bool  // the receiver died: deliveries retire at once
	to      *Node // the receiver, raised on the edge

	stage chan envelope // pump intake; nil when there is nothing to pump
}

// initQueue readies q, a zero queue, as a link into node to.
func initQueue(q *queue, t *Tree, fl *fault.Link, class int, to *Node) *queue {
	q.t, q.class, q.to = t, class, to
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
// receiver on the empty → non-empty edge.
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
		q.to.raise()
	}
}

// takeSlab moves up to max pending envelopes into dst (reusing its storage)
// in FIFO order, re-raising the receiver when some remain. Called by the
// receiving node's step; an empty queue yields an empty slab.
func (q *queue) takeSlab(dst []envelope, max int) []envelope {
	q.mu.Lock()
	live := q.pending[q.head:]
	n := min(len(live), max)
	dst = append(dst[:0], live[:n]...)
	clear(live[:n]) // release payload references
	q.head += n
	// Compact instead of reslicing: pending[n:] would abandon the array
	// prefix, so every slab taken forces the next appends into a fresh
	// allocation. The rest moves down only once the taken prefix outgrows
	// it, so a deep backlog is copied O(1) times per envelope, not once per
	// slab, and one backing array serves the queue's lifetime.
	rest := len(q.pending) - q.head
	if rest <= q.head {
		copy(q.pending, q.pending[q.head:])
		clear(q.pending[q.head:]) // the moved copies
		q.pending, q.head = q.pending[:rest], 0
	}
	q.mu.Unlock()
	if rest > 0 {
		q.to.raise()
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
	// queues, no steps, no handler — frames addressed to them cross the wire.
	local bool
	// run is the node's run state (runIdle…runRaised); next links it on the
	// tree's run queue.
	run  atomic.Int32
	next *Node

	rank      *rankInbox // app events (layer 0; the slot's, see intake.go)
	fromBelow *queue     // tool messages from children / self
	fromAbove *queue     // broadcasts from parent
	fromPeer  *queue     // intralayer (layer 0)
	// slab is the step's scratch for one delivery cycle's
	// envelopes (see queue.takeSlab); taken counts the cycle's counted
	// envelopes, retired together when the cycle ends, and enters the
	// cycle's Enter events (the intake's settle).
	slab   []envelope
	taken  int64
	enters int

	handler Handler
	// flusher and rankHandler cache the handler's optional extensions (set
	// alongside handler, before the node's first step). rankHandler is non-nil
	// only with batching on: off reproduces the boxed legacy delivery.
	flusher     Flusher
	rankHandler RankEventHandler
	holder      Holder

	// rsq resequences reliable frames per incoming directed link, made by
	// the first one (rseq); it is touched only by the node's steps.
	rsq map[linkKey]*reseq

	// ackPend accumulates the per-link cumulative acknowledgements of one
	// delivery cycle, flushed in one transport pass at cycle end (batching
	// with reliable transport only; nil means every frame acks immediately).
	// ackKeys mirrors the map keys so the flush allocates nothing. Both are
	// touched only by the node's steps.
	ackPend map[linkKey]uint64
	ackKeys []linkKey

	// life is made for a node that is sent a control message or killed
	// (lifecycle); the driver sends control messages to the root only.
	life     atomic.Pointer[lifecycle]
	killed   atomic.Bool
	deadOnce sync.Once
	// crashes are the slot's planned crashes not yet landed (fault.Crash),
	// and dispatched counts this incarnation's envelopes; step owns both.
	crashes    []int
	dispatched int
	// reaped marks that the supervisor already handled this death.
	reaped atomic.Bool
}

// lifecycle is a node's control lane and crash signals. dead is closed by
// Kill, after killed is set; a re-gid placeholder adopts its predecessor's
// lifecycle, so an injector holding either learns of the slot's splice-out
// (degrade, once per slot, is the only killer of placeholders). stopped is
// closed once a killed node stopped dispatching (bury), so neither a splice
// nor journal replay races a limping zombie. respawned is closed once the
// slot's fate after a crash is settled: a replacement took over the slot
// (InjectEvent retries against it) or it degraded.
type lifecycle struct {
	control                  chan envelope // 16 slots: a burst of driver messages (abort, trigger, node down) need not wait
	dead, stopped, respawned chan struct{}
}

// lifecycle returns n.life, making it on first use from any goroutine.
func (n *Node) lifecycle() *lifecycle {
	if n.life.Load() == nil {
		n.life.CompareAndSwap(nil, &lifecycle{make(chan envelope, 16), make(chan struct{}), make(chan struct{}), make(chan struct{})})
	}
	return n.life.Load()
}

// newNode builds one node for slot (layer, index) under gid; a local one
// gets its tool-link queues (first-layer nodes: also a peer queue, but no
// rank inbox — the caller makes or adopts that).
func (t *Tree) newNode(layer, index, gid int, local bool) *Node {
	n := new(Node)
	var qs []queue
	if local {
		qs = make([]queue, queuesPerNode(layer))
	}
	t.initNode(n, layer, index, gid, local, qs)
	return n
}

// queuesPerNode is how many tool-link queues a local node of layer has.
func queuesPerNode(layer int) int {
	if layer == 0 {
		return 3
	}
	return 2
}

// initNode is newNode on a zero Node and, for a local node, its zero queues
// (queuesPerNode of them): a tree build takes both from one slab per layer.
func (t *Tree) initNode(n *Node, layer, index, gid int, local bool, qs []queue) {
	n.tree, n.layer, n.index, n.gid, n.local = t, layer, index, gid, local
	// Not runnable until armed: raises find it queued, and Start or
	// respawn queues it once its handler is set.
	n.run.Store(runQueued)
	if local {
		n.fromBelow = initQueue(&qs[0], t, t.faultLink(gid, fault.UpLink), govUp, n)
		n.fromAbove = initQueue(&qs[1], t, t.faultLink(gid, fault.DownLink), govDown, n)
		if layer == 0 {
			n.fromPeer = initQueue(&qs[2], t, t.faultLink(gid, fault.PeerLink), govPeer, n)
		}
	}
}

// topology is one published shape of the tree: the node incarnation in
// each (layer, index) slot, each slot's up-link receiver and children, and
// on the TCP fabric the node each gid names. A published value is never
// written again, nor is any field of a published Node but its atomics, its
// channels and what its steps own (the handler, set before the first
// step): readers take one load (Tree.shape) and no lock, and every
// change publishes an edited clone through Tree.retopo.
type topology struct {
	layers   [][]*Node   // layers[l][i]: the node in slot (l, i)
	up       [][]*Node   // up[l][i]: slot (l, i)'s parent; the root itself at the root
	down     [][][]*Node // down[l][i]: slot (l, i)'s children
	gidIndex map[int]*Node
	// nextGid is the next fresh gid a respawn hands out: below it, a gid
	// absent from gidIndex belongs to a retired incarnation.
	nextGid int
}

func (tp *topology) clone() *topology {
	c := *tp
	c.layers = make([][]*Node, len(tp.layers))
	c.up = make([][]*Node, len(tp.up))
	c.down = make([][][]*Node, len(tp.down))
	for l := range tp.layers {
		c.layers[l] = slices.Clone(tp.layers[l])
		c.up[l] = slices.Clone(tp.up[l])
		c.down[l] = make([][]*Node, len(tp.down[l]))
		for i, kids := range tp.down[l] {
			c.down[l][i] = slices.Clone(kids)
		}
	}
	c.gidIndex = maps.Clone(tp.gidIndex)
	return &c
}

// receivers returns where n's messages of class go: its up-link receiver,
// its children, or first-layer node peer.
func (tp *topology) receivers(n *Node, class fault.Class, peer int) []*Node {
	switch class {
	case fault.UpLink:
		return tp.up[n.layer][n.index : n.index+1]
	case fault.DownLink:
		return tp.down[n.layer][n.index]
	default:
		return tp.layers[0][peer : peer+1]
	}
}

// place installs neu in its first-layer slot, in its predecessor's stead.
func (tp *topology) place(neu *Node) {
	old := tp.layers[0][neu.index]
	tp.layers[0][neu.index] = neu
	p := tp.up[0][neu.index]
	for i, c := range tp.down[p.layer][p.index] {
		if c == old {
			tp.down[p.layer][p.index][i] = neu
		}
	}
	if tp.gidIndex != nil {
		delete(tp.gidIndex, old.gid)
		tp.gidIndex[neu.gid] = neu
	}
	if neu.gid >= tp.nextGid {
		tp.nextGid = neu.gid + 1
	}
}

// retopo publishes the topology change makes to a clone of the current
// one. Every topology change goes through here, inside transport.mu when
// the reliable layer is active — change migrates the affected frames with
// tr — and that is the only lock a topology change takes: wrap resolves
// its receivers from the published value inside the same lock, so a frame
// is either sequenced before the change (and migrated with it) or
// addressed by the new topology. Without a transport the supervisor
// goroutine is the only writer.
func (t *Tree) retopo(change func(tp *topology, tr *transport)) {
	tr := t.transport
	if tr != nil {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	tp := t.shape.Load().clone()
	change(tp, tr)
	t.shape.Store(tp)
}

// Tree is the whole overlay.
type Tree struct {
	cfg   Config
	shape atomic.Pointer[topology] // the published topology; see retopo

	injector  *fault.Injector
	transport *transport // nil unless the reliable link layer is active
	net       *netFabric // nil unless the TCP fabric is active
	gov       *governor

	// mkHandler is retained from Start so a replacement can rebuild its
	// tool layer. recoveries counts successful respawns.
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

	// holding counts ranks held at the intake, which the idle edge
	// releases (releaseHolds), and heldWaits the times one parked
	// (Counters.HeldWaits); cycles counts the first-layer delivery cycles
	// the intake settled, the clock of its staleness rule.
	holding   atomic.Int64
	heldWaits atomic.Uint64
	cycles    atomic.Uint64

	// kills is the supervisor's wake token (capacity 1), raised by Kill;
	// nil without a fault plan, where no supervisor runs.
	kills chan struct{}

	rq   runQueue
	quit chan struct{}
	wg   sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds the tree topology (without starting its workers). It panics on
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
// steps; the rest of the topology is placeholders the fabric routes past.
func NewNet(cfg Config) (*Tree, error) {
	if cfg.Leaves <= 0 {
		panic("tbon: Leaves must be positive")
	}
	if cfg.FanIn < 2 {
		panic("tbon: FanIn must be at least 2")
	}
	if cfg.EventBuf == 0 {
		cfg.EventBuf = DefaultEventBuf
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
	t.rq.cond.L = &t.rq.mu
	t.gov = newGovernor(cfg.MemBudget)
	if cfg.Fault != nil {
		t.injector = fault.NewInjector(cfg.Fault)
		t.kills = make(chan struct{}, 1)
	}
	if cfg.Net != nil || (cfg.Fault != nil && !cfg.Fault.DisableRetransmit) {
		t.transport = newTransport(t, cfg.Fault)
	}
	// A worker joining (or rejoining) after a supervised respawn must adopt
	// the coordinator's current first-layer gid assignment: the default
	// identity mapping would address gids retired by earlier respawns.
	var leafGids []int
	if nc := cfg.Net; nc != nil && nc.Role == NetWorker && len(nc.LeafGids) == width0 {
		leafGids = nc.LeafGids
	}
	tp := &topology{}
	if cfg.Net != nil {
		tp.gidIndex = make(map[int]*Node)
	}
	gid := 0
	for width, layer := width0, 0; ; width, layer = (width+cfg.FanIn-1)/cfg.FanIn, layer+1 {
		// One slab of nodes and one of queues per layer (queues only for
		// the local nodes, which take theirs in order).
		nodes := make([]*Node, width)
		slab := make([]Node, width)
		local := 0
		for i := range nodes {
			if isLocal(layer, i) {
				local++
			}
		}
		per := queuesPerNode(layer)
		qs := make([]queue, local*per)
		var inboxes []rankInbox
		if layer == 0 {
			inboxes = make([]rankInbox, local)
		}
		kids := make([][]*Node, width)
		for i := range nodes {
			g := gid
			if leafGids != nil && layer == 0 {
				g = leafGids[i]
			}
			nodes[i] = &slab[i]
			if isLocal(layer, i) {
				t.initNode(nodes[i], layer, i, g, true, qs[:per:per])
				qs = qs[per:]
			} else {
				t.initNode(nodes[i], layer, i, g, false, nil)
			}
			if tp.gidIndex != nil {
				tp.gidIndex[g] = nodes[i]
			}
			gid++
			tp.nextGid = max(tp.nextGid, gid, g+1)
			if layer == 0 {
				if nodes[i].local {
					hosted := min(cfg.FanIn, cfg.Leaves-i*cfg.FanIn)
					nodes[i].rank = &inboxes[0]
					nodes[i].rank.init(cfg.EventBuf*hosted, nodes[i])
					inboxes = inboxes[1:]
				}
				continue
			}
			below := tp.layers[layer-1]
			kids[i] = below[i*cfg.FanIn : min((i+1)*cfg.FanIn, len(below))]
		}
		tp.layers = append(tp.layers, nodes)
		tp.up = append(tp.up, make([]*Node, width))
		tp.down = append(tp.down, kids)
		if layer > 0 {
			for c := range tp.up[layer-1] {
				tp.up[layer-1][c] = nodes[c/cfg.FanIn]
			}
		}
		if width == 1 {
			tp.up[layer][0] = nodes[0] // the root sends up to itself
			break
		}
	}
	t.shape.Store(tp)
	var err error
	if cfg.Fault != nil {
		err = t.planCrashes()
	} else if cfg.Net != nil {
		err = t.startNet()
	}
	if err != nil {
		t.halt() // release the queue pumps already spawned
		t.wg.Wait()
		return nil, err
	}
	return t, nil
}

// slabCap is the per-cycle delivery batch of each of the tree's queues:
// maxSlab with batching, 1 (one envelope per queue and cycle) without.
func (t *Tree) slabCap() int {
	if t.cfg.Batch {
		return maxSlab
	}
	return 1
}

// arm finishes a node's handler wiring before its first step: the cached
// Flusher and, when batching rides the reliable transport, the per-cycle
// acknowledgement accumulator.
func (t *Tree) arm(n *Node) {
	n.flusher, _ = n.handler.(Flusher)
	if n.rank != nil {
		n.holder, _ = n.handler.(Holder)
	}
	if t.cfg.Batch {
		n.rankHandler, _ = n.handler.(RankEventHandler)
	}
	if t.cfg.Batch && t.transport != nil {
		n.ackPend = make(map[linkKey]uint64)
	}
}

// Start launches the tree's workers, GOMAXPROCS of them at most (plus, with
// a fault plan, the retransmission scanner and the supervisor that reaps
// killed nodes), and queues every local node for its first step.
// mkHandler constructs the handler for each node before any message flows.
func (t *Tree) Start(mkHandler func(n *Node) Handler) {
	t.startOnce.Do(func() {
		t.mkHandler = mkHandler
		layers := t.shape.Load().layers
		local := 0
		for _, layer := range layers {
			for _, n := range layer {
				if !n.local {
					continue // remote nodes run in their own process
				}
				n.handler = mkHandler(n)
				t.arm(n)
				local++
			}
		}
		for range min(runtime.GOMAXPROCS(0), local) {
			t.wg.Add(1)
			go t.worker()
		}
		for _, layer := range layers {
			for _, n := range layer {
				if n.local {
					t.rq.push(n)
				}
			}
		}
		if t.transport != nil {
			t.wg.Add(1)
			go t.transport.run()
		}
		if t.cfg.Fault != nil {
			t.wg.Add(1)
			go t.supervise()
		}
	})
}

// Stop terminates the workers and pumps and waits for them. With a
// coordinator fabric it first asks every reachable worker to stop and
// collects their final reports (see WorkerFinals), then tears the fabric
// down.
func (t *Tree) Stop() {
	if t.net != nil && t.net.role == NetCoordinator {
		t.net.shutdownOnce.Do(t.net.shutdownWorkers)
	}
	t.stopOnce.Do(t.halt)
	t.wg.Wait()
	if t.net != nil {
		t.net.close()
	}
}

// halt closes quit and the run queue, whose workers leave after the step
// they are in, and wakes held ranks to see it; it wakes no node. Every
// close of quit goes through here. Callers run it once (stopOnce, or a
// tree never returned).
func (t *Tree) halt() {
	close(t.quit)
	t.rq.close()
	t.releaseHolds(false)
}

// InjectEvent delivers an application event to the first-layer node hosting
// the rank. An Enter event waits while that node holds its EventBuf bound
// and is still working (the hold, see intake.go); the resource governor
// makes no rank wait. It returns ErrStopped after the tree stopped and
// ErrNodeDown when the hosting node crashed; in both cases the event was
// not delivered. The event reaches a
// RankEventHandler without ever being boxed into an interface, making the
// batched intake allocation-free per event. With batching off (or a plain
// Handler) it is delivered boxed through FromRank.
//
// When the hosting node is dead and the tree can recover it, the injector
// waits for the slot's fate instead of dropping the event: the replacement
// adopts the slot's inbox, so a successful respawn preserves per-rank FIFO
// with zero dropped events.
func (t *Tree) InjectEvent(rank int, ev event.Event) error {
	env := rankEnvelope{from: rank, ev: ev}
	idx := t.NodeFor(rank)
	for {
		n := t.shape.Load().layers[0][idx]
		if !n.local {
			// Remote hosting node (coordinator of a TCP fabric): the event
			// crosses the wire on a sequenced RankLink frame, and the
			// per-leaf frame window is what makes the rank wait.
			return t.injectRemote(n, env)
		}
		if n.rank.put(t, n, &env, ev.Type == event.Enter) {
			return nil
		}
		if !t.recoveryEnabled() {
			return ErrNodeDown
		}
		select {
		case <-n.lifecycle().respawned:
		case <-t.quit:
			return ErrStopped
		}
		if t.shape.Load().layers[0][idx] == n {
			return ErrNodeDown // recovery failed: slot degraded
		}
		// A replacement took over: retry against it.
	}
}

// The outstanding-work word makes quiescence a counted fact. Bits 0–27
// count envelopes admitted to a local queue, rank inbox or control channel and
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
				if t.holding.Load() > 0 {
					t.releaseHolds(true)
				}
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
		HeldWaits:       t.heldWaits.Load(),
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

// FirstLayer returns the first tool layer's current nodes.
func (t *Tree) FirstLayer() []*Node { return t.shape.Load().layers[0] }

// Root returns the root node.
func (t *Tree) Root() *Node {
	layers := t.shape.Load().layers
	return layers[len(layers)-1][0]
}

// Layers returns the number of tool layers.
func (t *Tree) Layers() int { return len(t.shape.Load().layers) }

// NumNodes returns the total number of tool nodes.
func (t *Tree) NumNodes() int {
	n := 0
	for _, l := range t.shape.Load().layers {
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
	case n.lifecycle().control <- envelope{msg: msg}:
		n.raise()
	case <-t.quit:
	}
}

// --- Node methods (callable from the node's handler) ---

// Layer returns the node's layer (0 = first tool layer).
func (n *Node) Layer() int { return n.layer }

// Index returns the node's index within its layer.
func (n *Node) Index() int { return n.index }

// IsRoot reports whether this node is the tree root.
func (n *Node) IsRoot() bool { return n.layer == n.tree.Layers()-1 }

// IsFirstLayer reports whether this node is in the first tool layer.
func (n *Node) IsFirstLayer() bool { return n.layer == 0 }

// Children returns the current child node indices (empty on the first
// layer). After crash reattachment the list may span layers.
func (n *Node) Children() []int {
	kids := n.tree.shape.Load().down[n.layer][n.index]
	idx := make([]int, len(kids))
	for i, c := range kids {
		idx[i] = c.index
	}
	return idx
}

// NumPeers returns the number of first-layer nodes.
func (n *Node) NumPeers() int { return len(n.tree.FirstLayer()) }

// Tree returns the owning tree.
func (n *Node) Tree() *Tree { return n.tree }

// SendUp sends a tool message to the parent. On the root, the message is
// delivered back to the root itself via FromChild(own index) — aggregation
// logic then works uniformly on trees of any depth.
func (n *Node) SendUp(msg any) {
	n.send(fault.UpLink, -1, envelope{from: n.index, msg: msg})
}

// Broadcast sends a message down to all children; first-layer nodes have no
// children, so handlers there act on the message instead of forwarding.
func (n *Node) Broadcast(msg any) {
	if n.layer == 0 {
		return
	}
	n.send(fault.DownLink, -1, envelope{msg: msg})
}

// SendPeer sends an intralayer message to first-layer node peer (self-sends
// are delivered through the queue, keeping handlers single-threaded).
func (n *Node) SendPeer(peer int, msg any) {
	if n.layer != 0 {
		panic(fmt.Sprintf("tbon: intralayer send from layer %d", n.layer))
	}
	n.send(fault.PeerLink, peer, envelope{from: n.index, msg: msg})
}

// send transmits env to n's receivers of class (topology.receivers). With
// the reliable layer, wrap resolves them and sequences the frames inside
// transport.mu (see Tree.retopo).
func (n *Node) send(class fault.Class, peer int, env envelope) {
	t := n.tree
	tr := t.transport
	if tr == nil {
		for _, to := range t.shape.Load().receivers(n, class, peer) {
			t.transmit(to, class, env)
		}
		return
	}
	var one [1]envelope // a single receiver's frame stays on the stack
	to, envs := tr.wrap(n, class, peer, env, one[:0])
	for i, c := range to {
		t.transmit(c, class, envs[i])
	}
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

// Run states of a local node (Node.run). A node is on the run queue at most
// once and stepped by at most one worker at a time.
const (
	runIdle    int32 = iota // no work known: a raise queues it
	runQueued               // on the run queue, or not yet armed
	runRunning              // a worker is stepping it
	runRaised               // raised during its step: requeued after it
)

// runQueue is the tree's FIFO of local nodes with work, linked through
// Node.next and drained by the workers (Tree.worker).
type runQueue struct {
	mu         sync.Mutex
	cond       sync.Cond // a worker waits here while the queue is empty
	head, tail *Node
	idle       int  // workers waiting on cond
	closed     bool // halt: workers leave, pushes are dropped
}

func (q *runQueue) push(n *Node) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	n.next = nil
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
	wake := q.idle > 0
	q.mu.Unlock()
	if wake {
		q.cond.Signal()
	}
}

// pop waits for the next node to step; nil once the queue closed.
func (q *runQueue) pop() *Node {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == nil && !q.closed {
		q.idle++
		q.cond.Wait()
		q.idle--
	}
	if q.closed {
		return nil
	}
	n := q.head
	q.head = n.next
	if q.head == nil {
		q.tail = nil
	}
	return n
}

func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// raise tells the node it has work: the queues and the rank inbox on their
// empty → non-empty edge and on a slab that left a rest, Control and Kill.
// An idle node is queued; one being stepped is requeued after its step, so
// no raise is lost and a backlogged node goes to the tail. Never blocks.
func (n *Node) raise() {
	for {
		switch s := n.run.Load(); {
		case s == runQueued || s == runRaised:
			return
		case s == runIdle && n.run.CompareAndSwap(runIdle, runQueued):
			n.tree.rq.push(n)
			return
		case s == runRunning && n.run.CompareAndSwap(runRunning, runRaised):
			return
		}
	}
}

// worker is one of the tree's workers: it steps the nodes the run queue
// hands it until halt closes the queue.
func (t *Tree) worker() {
	defer t.wg.Done()
	for n := t.rq.pop(); n != nil; n = t.rq.pop() {
		n.run.Store(runRunning)
		n.step()
		if !n.run.CompareAndSwap(runRunning, runIdle) {
			n.run.Store(runQueued)
			t.rq.push(n)
		}
	}
}

// step is one delivery cycle of the node. It checks, in order, the node's
// death, one control message (served as its own cycle, after which the
// node raises itself for whatever else is pending), and otherwise serves
// the queues. A step without work ends an empty cycle. The slot's next
// planned crash lands after endCycle, once the count reaches it.
func (n *Node) step() {
	if n.killed.Load() {
		n.bury()
		return
	}
	// A non-blocking receive, which reads an empty channel without locking
	// it; a node never sent a control message has no lane, which is never
	// ready.
	var lane chan envelope
	if l := n.life.Load(); l != nil {
		lane = l.control
	}
	select {
	case env := <-lane:
		n.taken++
		n.handler.Control(env.msg)
		n.raise()
	default:
		n.dispatchQueues()
	}
	n.dispatched += int(n.taken)
	n.endCycle()
	if len(n.crashes) > 0 && n.dispatched >= n.crashes[0] {
		n.crashes = n.crashes[1:]
		n.Kill()
		n.bury()
	}
}

// dispatchQueues serves one step: a slab from each non-empty tool-link
// queue, always in the order peer, parent, children, then (first layer)
// one of rank events, in one delivery cycle. A source that keeps envelopes
// back re-raises the node, so its next step serves it again, and no
// source waits behind another's backlog for more than one slab.
func (n *Node) dispatchQueues() {
	if n.fromPeer != nil {
		n.dispatchSlab(n.fromPeer, n.dispatchPeer)
	}
	n.dispatchSlab(n.fromAbove, n.dispatchParent)
	n.dispatchSlab(n.fromBelow, n.dispatchChild)
	if n.rank != nil {
		n.dispatchRanks()
	}
}

// endCycle closes one delivery cycle: flush the batched acknowledgements,
// then the handler's coalesced output, settle the rank inbox (drop the
// dispatched events, publish the handler's held records, wake held ranks),
// then retire the cycle's envelopes — last, so everything they caused is
// counted before they stop counting. Runs before the step can observe a
// crash, so a dead node has always emitted the output of every input it
// dispatched.
func (n *Node) endCycle() {
	n.flushAcks()
	if n.flusher != nil {
		n.flusher.Flush()
	}
	if n.rank != nil && n.taken > 0 {
		w := 0
		if n.holder != nil {
			w = n.holder.Held()
		}
		n.tree.settle(n.rank, w, n.enters)
		n.enters = 0
	}
	n.tree.retire(n.taken)
	n.taken = 0
}

// bury retires what a crashed node will never take: on its first call its
// queues become drains (deliver retires what arrives), which ends its
// dispatching. Unless a replacement will adopt them (recovery), its rank
// inbox is sunk, and this call and every later one (each raise steps the
// dead node again) drain its control channel without blocking.
func (n *Node) bury() {
	select {
	case <-n.lifecycle().stopped:
	default:
		for _, q := range []*queue{n.fromBelow, n.fromAbove, n.fromPeer} {
			if q == nil {
				continue // interior nodes have no peer queue
			}
			q.mu.Lock()
			q.sunk = true
			pend := len(q.pending) - q.head
			q.pending, q.head = nil, 0
			q.mu.Unlock()
			n.tree.retire(int64(pend))
		}
		close(n.lifecycle().stopped)
		if n.rank != nil && !n.tree.recoveryEnabled() {
			n.tree.retire(int64(n.rank.sink()))
		}
	}
	if n.tree.recoveryEnabled() {
		return
	}
	for {
		select {
		case <-n.lifecycle().control:
			n.tree.retire(1)
		default:
			return
		}
	}
}

// dispatchSlab dispatches up to slabCap envelopes of one queue in order
// and releases their governor charges (they are no longer tool-plane
// residents once the handler consumed them).
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

// maxEventDrain bounds how many rank events one delivery cycle absorbs.
// Deliberately much smaller than maxSlab: every drained event opens
// wait-state work whose handshake messages only flush at cycle end, so a
// large gulp inflates the live trace window (and the matching engines'
// memory) for little extra amortization.
const maxEventDrain = 16

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
