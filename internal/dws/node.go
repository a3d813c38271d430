package dws

import (
	"fmt"
	"maps"
	"slices"

	"dwst/internal/collmatch"
	"dwst/internal/event"
	"dwst/internal/p2pmatch"
	"dwst/internal/trace"
)

// Out is the communication surface a node uses: intralayer messages to peer
// first-layer nodes and upward messages towards the root. Implementations
// wrap a tbon.Node; tests drive nodes directly.
type Out interface {
	// Peer sends an intralayer message to first-layer node `node`, never
	// to the sending node itself: a node consumes the messages it addresses
	// to itself in-line (see Node.self).
	Peer(node int, msg any)
	// Up sends a message towards the root (Ready, Member,
	// AckConsistentState, WaitReport).
	Up(msg any)
}

// Node is the distributed wait-state tracker of one first-layer TBON node:
// it owns the state components l_i of its hosted ranks and implements the
// handlers of Figure 7 plus the node side of the consistent-state protocol.
type Node struct {
	id      int
	nodeFor func(worldRank int) int
	out     Out

	// ranks holds the hosted ranks' states, consecutive world ranks in
	// ascending order (rank r at ranks[r-ranks[0].rank]).
	ranks []rankState
	match *p2pmatch.Engine
	coll  *collmatch.Leaf

	// collOps indexes hosted collective operations by (comm, wave) for
	// collectiveAck application; ackedEarly records acks that arrived before
	// the local operation. Like every map of the node and of its ranks,
	// both are made on first write (setKey): most nodes of a run never
	// write most of them.
	collOps    map[collKey][]opRef
	ackedEarly map[collKey]bool

	frozen   bool
	snap     *snapshot
	deferred []event.Event
	// lastEpoch is the newest snapshot epoch this node entered; older
	// requests are duplicates of aborted attempts and ignored.
	lastEpoch int
	// deadPeers are first-layer nodes declared crashed: snapshots skip
	// them (they can never pong).
	deadPeers map[int]bool

	// readySent holds collective reports emitted but not yet acknowledged
	// by a collective Ack, and membersSent the communicator-registry
	// reports, for re-emission after a tool-node crash (Resync): anything
	// swallowed by a dead interior node must reach the root again.
	readySent   map[collKey][]collmatch.Ready
	membersSent []collmatch.Member

	// deadRanks are application ranks known to have crashed (hosted or
	// not), from the local terminal event or the root's rebroadcast.
	deadRanks map[int]bool

	// passSeen[sender] is the highest send timestamp already registered
	// with matching, per sending world rank. PassSends from one rank
	// arrive in timestamp order (per-link FIFO, and crash-recovery frame
	// migration preserves order on both the old and the new link), so a
	// lower-or-equal timestamp is a duplicate delivered across an
	// incarnation boundary and must not be registered twice — the matching
	// engine is the one peer-protocol receiver that is not naturally
	// idempotent.
	passSeen map[int]int

	// dirty tracks peers this node sent wait-state messages to since the
	// last snapshot. The consistent-state ping-pong must cover them all: an
	// acknowledgement can be in transit even when the local send operation
	// already completed its handshake (and its rank finished), so pinging
	// only the hosts of currently-active sends would leave a stale-report
	// race. A destination is written once per delivery cycle, by its first
	// wait-state message (peerBuf.marked).
	dirty map[int]bool

	// window statistics (Sec. 4.2 memory discussion).
	curWindow int
	maxWindow int

	// retiredOps counts operations advanced past, the recovery plane's
	// checkpoint trigger (journal watermark advances on op retirement).
	retiredOps int

	// batch, when set, coalesces intralayer traffic per destination: sendPeer
	// buffers into pendPeer and FlushPeers (driven by the substrate at the
	// end of each delivery cycle) ships one Batch per destination. pendDest
	// keeps the destinations of the cycle in first-touch order so the flush
	// is deterministic.
	batch    bool
	pendPeer map[int]*peerBuf
	pendDest []*peerBuf

	// self holds the peer messages this node addressed to itself, in send
	// order. Every exported entry point consumes them (drainSelf) before it
	// returns, so a self-addressed handshake costs no flush, queue hop or
	// delivery cycle, and the self link is empty at every entry-point
	// boundary: checkpoints need not capture it and snapshots need not ping
	// it.
	self []PeerMsg

	// free holds reclaimed operation records for reuse by newOp. A record
	// is reused only by newOp, which no handler holding a record can reach.
	free []*opState

	stats Stats
}

// Stats counts the tool messages a node generated, for overhead analysis.
type Stats struct {
	PassSends      int
	RecvActives    int
	RecvActiveAcks int
	CollReadys     int
}

// Add accumulates another node's counters.
func (s *Stats) Add(o Stats) {
	s.PassSends += o.PassSends
	s.RecvActives += o.RecvActives
	s.RecvActiveAcks += o.RecvActiveAcks
	s.CollReadys += o.CollReadys
}

// Total sums all message counters.
func (s Stats) Total() int {
	return s.PassSends + s.RecvActives + s.RecvActiveAcks + s.CollReadys
}

// peerBuf is one destination's coalesced traffic of the current delivery
// cycle. marked records that a wait-state message of the cycle already put
// the destination in the dirty set.
type peerBuf struct {
	dest   int
	msgs   []PeerMsg
	marked bool
}

type collKey struct {
	comm trace.CommID
	wave int
}

type opRef struct {
	rank int
	ts   int
}

type rankState struct {
	rank    int
	l       int // current timestamp l_i
	ops     window
	reqs    reqWindow // request → timestamp of the operation that created it
	collSeq map[trace.CommID]int
	// creating holds each Comm_dup/Comm_split call with the (parent
	// communicator, wave) it ran in, until the rank's CommInfo event for that
	// call was consumed. The window entry cannot serve: the collective's Ack
	// can overtake the trailing CommInfo (different links into the node)
	// and retires the operation first.
	creating []creation
	done     bool // returned from the program (Done event)
	lastTS   int  // highest timestamp received

	// crashed/lastCall record the rank's death (RankDown event).
	crashed  bool
	lastCall int
}

// creation is one pending Comm_dup/Comm_split call of a rank.
type creation struct {
	ts int
	collKey
}

type opState struct {
	op     trace.Op
	active bool
	canAdv bool
	// p2p state
	matched    bool
	peerProc   int // matched peer op (world rank)
	peerTS     int
	peerNode   int
	resolved   bool // wildcard resolved by status (src below)
	resolvedGr int  // resolved source (group rank)
	// send side
	gotRecvActive bool
	recvProc      int
	recvTS        int
	recvNode      int
	probeAcks     []PeerMsg // probe RecvActives awaiting our activation
	// comm completion (nonblocking p2p): the Rule 2/4 premise holds
	commComplete bool
	// collective
	wave      int
	collAcked bool
	retired   bool
}

// window stores the operations of one rank that may still see a message or
// a transition, indexed by timestamp. A rank's timestamps are dense (one per
// MPI call, in issue order), so operation ts sits in slots[ts-base], and a
// reclaimed slot is nil. lo is the first slot that may be non-nil.
type window struct {
	base  int
	lo    int
	slots []*opState
}

// get returns the stored operation with timestamp ts, or nil.
func (w *window) get(ts int) *opState {
	if i := ts - w.base; i >= w.lo && i < len(w.slots) {
		return w.slots[i]
	}
	return nil
}

// put stores o, the rank's next operation.
func (w *window) put(o *opState) {
	switch {
	case w.lo == len(w.slots):
		// Empty: restart at o.
		w.slots, w.lo, w.base = w.slots[:0], 0, o.op.TS
	case len(w.slots) == cap(w.slots) && 2*w.lo >= len(w.slots):
		// Full, and at least half of it reclaimed: slide the stored part
		// down instead of growing. Each slide moves at most as many slots as
		// were reclaimed since the previous one.
		k := copy(w.slots, w.slots[w.lo:])
		clear(w.slots[k:])
		w.slots, w.base, w.lo = w.slots[:k], w.base+w.lo, 0
	}
	i := o.op.TS - w.base
	if i < len(w.slots) {
		panic(fmt.Sprintf("dws: rank %d entered timestamp %d twice or out of order", o.op.Proc, o.op.TS))
	}
	for len(w.slots) < i {
		w.slots = append(w.slots, nil) // a gap (timestamps are dense in practice)
	}
	w.slots = append(w.slots, o)
}

// take removes operation ts from the window and returns it (nil if it was
// not stored).
func (w *window) take(ts int) *opState {
	o := w.get(ts)
	if o == nil {
		return nil
	}
	w.slots[ts-w.base] = nil
	for w.lo < len(w.slots) && w.slots[w.lo] == nil {
		w.lo++
	}
	return o
}

// stored returns the slots from the first stored operation on; callers
// skip the nil ones.
func (w *window) stored() []*opState { return w.slots[w.lo:] }

// reqWindow maps a rank's request IDs to the timestamps of the operations
// that created them. The runtime hands a rank's IDs out in increasing order,
// with gaps where a blocking Recv or Probe used an internal request that
// never reaches the tool, so record rq sits in slots[rq-base] (holding
// ts+1; 0 is no record) and lo is the first slot that may hold one.
// Replayed traces may use any IDs: one below the base goes to the spill
// map, and a new ID that would stretch the window past reqSpan(live) slots
// moves the records it leaves behind there first. Every ID sits in at most
// one of the two; a lookup that misses the window consults spill only when
// it is non-empty.
type reqWindow struct {
	base  trace.ReqID
	lo    int
	live  int // records in slots
	slots []int
	spill map[trace.ReqID]int
}

// reqSpan bounds the slots a window holding live records may span: sparse
// records (ones Waitany or Test* keep) leave for spill instead of pinning an
// ever longer window.
func reqSpan(live int) int { return max(64, 4*live) }

// get returns the timestamp recorded for rq.
func (w *reqWindow) get(rq trace.ReqID) (ts int, ok bool) {
	if i := int(rq) - int(w.base); i >= w.lo && i < len(w.slots) && w.slots[i] != 0 {
		return w.slots[i] - 1, true
	}
	if len(w.spill) == 0 {
		return 0, false
	}
	ts, ok = w.spill[rq]
	return ts, ok
}

// put records that operation ts created request rq, replacing any record
// of rq.
func (w *reqWindow) put(rq trace.ReqID, ts int) {
	if w.lo == len(w.slots) {
		w.slots, w.lo, w.base = w.slots[:0], 0, rq // empty: restart at rq
	}
	i := int(rq) - int(w.base)
	if i >= len(w.slots) {
		i = w.extend(i)
	}
	if i < 0 {
		if w.spill == nil {
			w.spill = make(map[trace.ReqID]int)
		}
		w.spill[rq] = ts
		return
	}
	if len(w.spill) > 0 {
		delete(w.spill, rq)
	}
	if w.slots[i] == 0 {
		w.live++
		w.lo = min(w.lo, i)
	}
	w.slots[i] = ts + 1
}

// extend makes room for slot i at or past the end of the window and
// returns its index afterwards. Records more than reqSpan(live) below rq
// move to spill first; the rest slides down when at least half of the
// slice was reclaimed, else the slice grows.
func (w *reqWindow) extend(i int) int {
	if cut := i + 1 - reqSpan(w.live); cut > w.lo {
		for ; w.lo < len(w.slots) && (w.lo < cut || w.slots[w.lo] == 0); w.lo++ {
			if v := w.slots[w.lo]; v != 0 {
				if w.spill == nil {
					w.spill = make(map[trace.ReqID]int)
				}
				w.spill[w.base+trace.ReqID(w.lo)] = v - 1
				w.slots[w.lo] = 0
				w.live--
			}
		}
		if w.lo == len(w.slots) {
			w.base += trace.ReqID(i)
			w.slots, w.lo = w.slots[:0], 0
			i = 0
		}
	}
	if i >= cap(w.slots) && 2*w.lo >= len(w.slots) {
		k := copy(w.slots, w.slots[w.lo:])
		clear(w.slots[k:])
		w.slots, w.base, i, w.lo = w.slots[:k], w.base+trace.ReqID(w.lo), i-w.lo, 0
	}
	for len(w.slots) <= i {
		w.slots = append(w.slots, 0)
	}
	return i
}

// del frees request rq's record.
func (w *reqWindow) del(rq trace.ReqID) {
	if i := int(rq) - int(w.base); i >= w.lo && i < len(w.slots) && w.slots[i] != 0 {
		w.slots[i] = 0
		w.live--
		for w.lo < len(w.slots) && w.slots[w.lo] == 0 {
			w.lo++
		}
		return
	}
	if len(w.spill) > 0 {
		delete(w.spill, rq)
	}
}

// records counts the records.
func (w *reqWindow) records() int { return w.live + len(w.spill) }

// clone copies the window from its first record on.
func (w *reqWindow) clone() reqWindow {
	return reqWindow{
		base:  w.base + trace.ReqID(w.lo),
		live:  w.live,
		slots: slices.Clone(w.slots[w.lo:]),
		spill: maps.Clone(w.spill),
	}
}

// NewNode creates a tracker for the given hosted world ranks, which must be
// consecutive and ascending (the first layer hosts a block of ranks).
func NewNode(id int, hosted []int, nodeFor func(int) int, out Out) *Node {
	n := &Node{
		id:      id,
		nodeFor: nodeFor,
		out:     out,
		ranks:   make([]rankState, len(hosted)),
		match:   p2pmatch.NewEngine(),
		coll:    collmatch.NewLeaf(id, len(hosted)),
	}
	// The ranks' first window slots come from one slab; a window that
	// outgrows them moves to its own array.
	slots := make([]*opState, windowSlots*len(hosted))
	for i, r := range hosted {
		if r != hosted[0]+i {
			panic(fmt.Sprintf("dws: node %d hosts ranks %v, not a consecutive block", id, hosted))
		}
		n.ranks[i] = rankState{rank: r, lastTS: -1,
			ops: window{slots: slots[i*windowSlots : i*windowSlots : (i+1)*windowSlots]}}
	}
	return n
}

// windowSlots is the window capacity NewNode gives every rank.
const windowSlots = 4

// setKey sets m[k] = v, making the map on first write.
func setKey[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// ID returns the node's first-layer index.
func (n *Node) ID() int { return n.id }

// WindowHighWater returns the maximum number of simultaneously stored
// operations (the trace-window size of Sec. 4.2).
func (n *Node) WindowHighWater() int { return n.maxWindow }

// WindowSize returns the operations currently stored.
func (n *Node) WindowSize() int { return n.curWindow }

// Held returns the operations the node holds: its stored window plus the
// events deferred while it is frozen. The intake bounds this count
// (tbon.Holder).
func (n *Node) Held() int { return n.curWindow + len(n.deferred) }

// Frozen reports whether the transition system is frozen for a snapshot.
func (n *Node) Frozen() bool { return n.frozen }

// handshake sends one wait-state message to a first-layer node, counting
// it in the message statistics. One to this node itself joins the self
// queue, one to a peer that peer's buffer (sendPeer): both by value.
func (n *Node) handshake(node int, m PeerMsg) {
	switch m.Type {
	case PeerPassSend:
		n.stats.PassSends++
	case PeerRecvActive:
		n.stats.RecvActives++
	default:
		n.stats.RecvActiveAcks++
	}
	if node == n.id {
		n.self = append(n.self, m)
		return
	}
	n.sendPeer(node, m)
}

// sendPeer routes one intralayer message to another node through the
// per-destination coalescing buffer, flushed at once when batching is off,
// recording a wait-state message's destination for the snapshot ping set.
// Only the handshakes reach this node itself, through the self queue; a
// node never pings itself, so a message to itself here is a broken
// invariant. ALL peer traffic — wait-state messages and the snapshot
// Ping/Pong alike — must take this path: the
// consistent-state protocol's drain argument rests on per-link FIFO between
// them, which a Ping bypassing a buffered PassSend would break (the
// ping-pong would "prove" a message consumed that is still sitting in this
// node's buffer — a false-deadlock hazard).
func (n *Node) sendPeer(node int, m PeerMsg) {
	if node == n.id {
		panic(fmt.Sprintf("dws: node %d sent %T to itself", n.id, m.bare()))
	}
	// A destination's buffer outlives the cycle: FlushPeers empties it for
	// reuse, so the map is read, not written, once the destination is known.
	p := n.pendPeer[node]
	if p == nil {
		p = &peerBuf{dest: node}
		setKey(&n.pendPeer, node, p)
	}
	if len(p.msgs) == 0 {
		n.pendDest = append(n.pendDest, p)
	}
	if m.Type.WaitState() && !p.marked {
		p.marked = true
		setKey(&n.dirty, node, true)
	}
	p.msgs = append(p.msgs, m)
	if !n.batch {
		n.FlushPeers()
	}
}

// SetBatch switches per-destination coalescing on or off. Call before any
// traffic flows (or right after construction on a recovery respawn).
func (n *Node) SetBatch(on bool) { n.batch = on }

// FlushPeers ships everything coalesced in the current delivery cycle: the
// bare message when a destination accumulated exactly one (so the unbatched
// message shapes stay on the wire for singleton traffic), one Batch
// otherwise. The substrate calls it at the end of every cycle; recovery
// calls it before swapping output surfaces. No-op when nothing is pending.
func (n *Node) FlushPeers() {
	for _, p := range n.pendDest {
		if len(p.msgs) == 1 {
			n.out.Peer(p.dest, p.msgs[0].bare())
		} else {
			n.out.Peer(p.dest, Batch{FromNode: n.id, Msgs: slices.Clone(p.msgs)})
		}
		p.msgs, p.marked = p.msgs[:0], false
	}
	n.pendDest = n.pendDest[:0]
}

// drainSelf consumes the self queue in FIFO order, including what the
// consumed messages add to it. Exported entry points that can emit
// wait-state messages call it last.
func (n *Node) drainSelf() {
	for i := 0; i < len(n.self); i++ {
		// The handlers may append to n.self: take each message out of the
		// slice by value before handling it.
		m := n.self[i]
		n.dispatch(&m)
	}
	n.self = n.self[:0]
}

// Stats returns the node's tool-message counters. They count every
// wait-state message the node generated, the ones it consumed in-line
// included.
func (n *Node) Stats() Stats { return n.stats }

// UnmatchedSends returns the number of sends destined to hosted ranks that
// never matched a receive — "lost messages" when read after the run.
func (n *Node) UnmatchedSends() int {
	total := 0
	for i := range n.ranks {
		total += n.match.PendingSends(n.ranks[i].rank)
	}
	return total
}

func (n *Node) rank(r int) *rankState {
	rs := n.hosted(r)
	if rs == nil {
		panic(fmt.Sprintf("dws: node %d does not host rank %d", n.id, r))
	}
	return rs
}

// hosted returns rank r's state, or nil when this node does not host r.
func (n *Node) hosted(r int) *rankState {
	if len(n.ranks) == 0 {
		return nil
	}
	if i := r - n.ranks[0].rank; i >= 0 && i < len(n.ranks) {
		return &n.ranks[i]
	}
	return nil
}

// OnEvent processes one application event of a hosted rank. While the node
// is frozen for a consistent state, events are deferred: a snapshot must
// only reflect operations whose derived messages the ping-pong protocol
// covers, otherwise two operations arriving mid-snapshot on different nodes
// could be reported mutually blocked before their handshake ran — a false
// deadlock.
func (n *Node) OnEvent(ev event.Event) { n.OnEventRef(&ev) }

// OnEventRef is OnEvent on an event the caller owns: the node reads it
// during the call and keeps a copy of what it needs (a deferred event, an
// operation record), never the pointer. It spares the caller a second
// copy of an event it already holds by value.
func (n *Node) OnEventRef(ev *event.Event) {
	if n.frozen {
		n.deferred = append(n.deferred, *ev)
		return
	}
	n.processEvent(ev)
	n.drainSelf()
}

func (n *Node) processEvent(ev *event.Event) {
	switch ev.Type {
	case event.Enter:
		n.newOp(&ev.Op)
	case event.Status:
		n.onStatus(ev.Proc, ev.TS, ev.Src)
	case event.CommInfo:
		n.onCommInfo(ev.Proc, ev.TS, ev.Comm)
	case event.Done:
		n.rank(ev.Proc).done = true
	case event.RankDown:
		if first := n.OnRankDown(ev.Proc, ev.TS); first {
			n.out.Up(RankDown{Rank: ev.Proc, LastCall: ev.TS, Node: n.id})
		}
	}
}

// OnRankDown marks an application rank as crashed: its pending receives
// are tombstoned in the matching engine (mirroring the simulator's
// mailbox tombstone — the dead rank consumes nothing further, while its
// already-sent messages stay matchable) and, when hosted here, its window
// entries are dropped. Called for the local terminal event and for the
// root's rebroadcast; returns true the first time the rank is marked.
func (n *Node) OnRankDown(rank, lastCall int) bool {
	if n.deadRanks[rank] {
		return false
	}
	setKey(&n.deadRanks, rank, true)
	n.match.DropRank(rank)
	if rs := n.hosted(rank); rs != nil {
		rs.crashed = true
		rs.lastCall = lastCall
		for _, o := range rs.ops.stored() {
			if o != nil {
				n.dropOp(rs, o.op.TS)
			}
		}
	}
	return true
}

// newOp is Figure 7's newOp handler.
func (n *Node) newOp(op *trace.Op) {
	rs := n.rank(op.Proc)
	rs.lastTS = op.TS
	o := n.newOpState(op)
	rs.ops.put(o)
	n.curWindow++
	if n.curWindow > n.maxWindow {
		n.maxWindow = n.curWindow
	}

	kind := op.Kind
	switch {
	case kind == trace.Finalize:
		// Terminal: no rule ever applies.

	case kind.IsSend():
		if !kind.Blocking() {
			o.canAdv = true
		}
		n.handshake(n.nodeFor(op.PeerWorld), PeerMsg{
			Type:     PeerPassSend,
			SendProc: op.Proc, SendTS: op.TS,
			SrcGroup: op.SelfGroup,
			Dest:     op.PeerWorld, Tag: op.Tag, Comm: op.Comm,
			Kind: kind, FromNode: n.id,
		})
		if kind.IsNonBlockingP2P() {
			rs.reqs.put(op.Req, op.TS)
		}

	case kind == trace.Iprobe:
		// Iprobe does not block and does not constrain matching.
		o.canAdv = true

	case kind.IsRecv():
		if !kind.Blocking() {
			o.canAdv = true
		}
		if kind.IsNonBlockingP2P() {
			rs.reqs.put(op.Req, op.TS)
		}
		n.applyMatches(n.match.AddRecv(p2pmatch.RecvInfo{
			Proc: op.Proc, TS: op.TS, Src: op.Peer, Tag: op.Tag,
			Comm: op.Comm, Probe: kind.IsProbe(),
		}))

	case kind.IsCollective():
		wave := rs.collSeq[op.Comm]
		setKey(&rs.collSeq, op.Comm, wave+1)
		o.wave = wave
		k := collKey{op.Comm, wave}
		if kind == trace.CommDup || kind == trace.CommSplit {
			rs.creating = append(rs.creating, creation{op.TS, k})
		}
		setKey(&n.collOps, k, append(n.collOps[k], opRef{op.Proc, op.TS}))
		if n.ackedEarly[k] {
			o.collAcked = true
			o.canAdv = true
		}

	case kind.IsCompletion():
		if !kind.Blocking() {
			o.canAdv = true // Test family
		}

	default:
		o.canAdv = true
	}

	// applyMatches above may already have activated the operation through
	// tryAdvance; activate is not idempotent (it emits handshake messages),
	// so guard on the active flag.
	if op.TS == rs.l && !o.active {
		n.activate(rs, o)
	}
	n.tryAdvance(rs)
}

// onStatus is the wildcard-resolution handler: operation (proc, ts)
// received from group rank src.
func (n *Node) onStatus(proc, ts, src int) {
	rs := n.rank(proc)
	if o := rs.ops.get(ts); o != nil {
		o.resolved = true
		o.resolvedGr = src
	}
	n.applyMatches(n.match.Resolve(proc, ts, src))
}

// onCommInfo reports a created communicator to the root's registry.
func (n *Node) onCommInfo(proc, ts int, newComm trace.CommID) {
	rs := n.rank(proc)
	i := slices.IndexFunc(rs.creating, func(c creation) bool { return c.ts == ts })
	if i < 0 {
		return
	}
	k := rs.creating[i].collKey
	rs.creating = slices.Delete(rs.creating, i, i+1)
	m := collmatch.Member{
		NewComm: newComm, Rank: proc,
		Parent: k.comm, ParentWave: k.wave,
	}
	n.membersSent = append(n.membersSent, m)
	n.out.Up(m)
}

// OnPeer dispatches an intralayer message: a Batch or one bare message.
// Batches unpack in send order — receivers understand them regardless of
// their own batch setting.
func (n *Node) OnPeer(from int, msg any) {
	if b, ok := msg.(Batch); ok {
		for i := range b.Msgs {
			n.dispatch(&b.Msgs[i])
		}
	} else {
		m := peerMsgOf(msg)
		n.dispatch(&m)
	}
	n.drainSelf()
}

// dispatch hands one intralayer message to its handler, for OnPeer and the
// self queue alike. It only reads m.
func (n *Node) dispatch(m *PeerMsg) {
	switch m.Type {
	case PeerPassSend:
		n.handlePassSend(m)
	case PeerRecvActive:
		n.handleRecvActive(m)
	case PeerRecvActiveAck:
		n.handleRecvActiveAck(m)
	case PeerPing:
		n.sendPeer(m.FromNode, PeerMsg{Type: PeerPong, Round: m.Round, Epoch: m.Epoch, FromNode: n.id})
	case PeerPong:
		n.handlePong(m)
	}
}

// handlePassSend is Figure 7's handler: register the send with point-to-
// point matching; any produced match updates the receive and may trigger
// recvActive.
func (n *Node) handlePassSend(m *PeerMsg) {
	if last, ok := n.passSeen[m.SendProc]; ok && m.SendTS <= last {
		return // duplicate across a crash-recovery incarnation boundary
	}
	setKey(&n.passSeen, m.SendProc, m.SendTS)
	n.applyMatches(n.match.AddSend(p2pmatch.SendInfo{
		Proc: m.SendProc, TS: m.SendTS, Src: m.SrcGroup,
		Dest: m.Dest, Tag: m.Tag, Comm: m.Comm, Kind: m.Kind,
	}))
}

// applyMatches installs engine matches into the receive-side operation
// states (the receives are hosted on this node). ms is the engine's own
// buffer: nothing below calls the engine, and handshakes addressed to this
// node wait in the self queue until the entry point drains it.
func (n *Node) applyMatches(ms []p2pmatch.Match) {
	for _, m := range ms {
		rs := n.rank(m.Recv.Proc)
		o := rs.ops.get(m.Recv.TS)
		if o == nil {
			continue // already retired (stale probe duplicate)
		}
		o.matched = true
		o.peerProc = m.Send.Proc
		o.peerTS = m.Send.TS
		o.peerNode = n.nodeFor(m.Send.Proc)
		if o.active {
			n.sendRecvActive(o)
		}
		n.tryAdvance(rs)
	}
}

// sendRecvActive notifies the send-hosting node that this (matched, active)
// receive/probe is active.
func (n *Node) sendRecvActive(o *opState) {
	n.handshake(o.peerNode, PeerMsg{
		Type:     PeerRecvActive,
		SendProc: o.peerProc, SendTS: o.peerTS,
		RecvProc: o.op.Proc, RecvTS: o.op.TS,
		FromNode: n.id, Probe: o.op.Kind.IsProbe(),
	})
}

// handleRecvActive is Figure 7's handler on the send side.
func (n *Node) handleRecvActive(m *PeerMsg) {
	rs := n.rank(m.SendProc)
	o := rs.ops.get(m.SendTS)
	if o == nil {
		// The send already completed its handshake and was cleaned up; a
		// probe request can still arrive afterwards. Ack directly: the send
		// was certainly active.
		n.handshake(m.FromNode, PeerMsg{Type: PeerRecvActiveAck, RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		return
	}
	if m.Probe {
		if o.active {
			n.handshake(m.FromNode, PeerMsg{Type: PeerRecvActiveAck, RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		} else {
			o.probeAcks = append(o.probeAcks, *m)
		}
		return
	}
	o.gotRecvActive = true
	o.recvProc = m.RecvProc
	o.recvTS = m.RecvTS
	o.recvNode = m.FromNode
	if o.active {
		n.completeSendHandshake(rs, o)
	}
}

// completeSendHandshake acknowledges the receive and marks the send's
// premise satisfied.
func (n *Node) completeSendHandshake(rs *rankState, o *opState) {
	n.handshake(o.recvNode, PeerMsg{Type: PeerRecvActiveAck, RecvProc: o.recvProc, RecvTS: o.recvTS})
	o.commComplete = true
	if o.op.Kind.Blocking() {
		o.canAdv = true
	}
	n.reclaimIfRetired(rs, o)
	n.tryAdvance(rs)
}

// handleRecvActiveAck is Figure 7's handler on the receive side.
func (n *Node) handleRecvActiveAck(m *PeerMsg) {
	rs := n.rank(m.RecvProc)
	o := rs.ops.get(m.RecvTS)
	if o == nil {
		return // probe acked twice or already cleaned up
	}
	o.commComplete = true
	if o.op.Kind.Blocking() {
		o.canAdv = true
	}
	n.reclaimIfRetired(rs, o)
	n.tryAdvance(rs)
}

// reclaimIfRetired drops the window entry of a non-blocking operation whose
// communication just completed after the operation retired: nothing can
// arrive for it any more, and its request reads as done without it.
func (n *Node) reclaimIfRetired(rs *rankState, o *opState) {
	if o.retired {
		n.dropOp(rs, o.op.TS)
	}
}

// request looks up the operation that created request rq. known is false
// for an unknown or freed request; o is nil when its communication
// completed — the operation's commComplete is set, or the window reclaimed
// it, which for a non-blocking operation happens only after completion (or
// with the rank's crash).
//
// The records live in the rank's request window (reqWindow): a blocking
// Wait/Waitall frees the requests it returned (MPI freed them), which lets
// the window's base advance; requests completed through Waitany/Waitsome/
// Test* keep theirs, because a request that completed but was not returned
// must still read as done to a later call. Such a kept record pins the
// window's oldest slot only until newer IDs stretch it past reqSpan; it
// then moves to the spill map and keeps reading as done from there.
func (rs *rankState) request(rq trace.ReqID) (o *opState, known bool) {
	ts, ok := rs.reqs.get(rq)
	if !ok {
		return nil, false
	}
	if o := rs.ops.get(ts); o != nil && !o.commComplete {
		return o, true
	}
	return nil, true
}

// OnCollAck applies a collectiveAck: every hosted operation of the wave can
// advance (Rule 3's premise holds globally).
func (n *Node) OnCollAck(a collmatch.Ack) {
	k := collKey{a.Comm, a.Wave}
	if len(n.collOps[k]) == len(n.ranks) {
		// Every hosted rank already issued its operation of this wave; no
		// late arrival can need the early-ack marker, so drop it (keeps the
		// marker map from growing by one entry per wave forever). Waves on
		// sub-communicators conservatively keep the marker.
		delete(n.ackedEarly, k)
	} else {
		setKey(&n.ackedEarly, k, true)
	}
	for _, ref := range n.collOps[k] {
		rs := n.rank(ref.rank)
		if o := rs.ops.get(ref.ts); o != nil {
			o.collAcked = true
			o.canAdv = true
			n.tryAdvance(rs)
		}
	}
	delete(n.collOps, k)
	delete(n.readySent, k)
	n.drainSelf()
}

// ResendReady re-emits every collective report not yet answered by an Ack
// and every communicator-registry report, after a tool-node crash
// (Resync): reports buffered inside the dead node are gone; the root
// deduplicates what did arrive and re-broadcasts Acks for waves it already
// completed.
func (n *Node) ResendReady() {
	for _, m := range n.membersSent {
		n.out.Up(m)
	}
	for _, rs := range n.readySent {
		for _, r := range rs {
			n.out.Up(r)
		}
	}
}

// activate is Figure 7's activate: the operation became the current
// operation of its process.
func (n *Node) activate(rs *rankState, o *opState) {
	o.active = true
	kind := o.op.Kind
	switch {
	case kind.IsCollective():
		r, emit, mism := n.coll.Activate(o.op.Comm, o.wave,
			o.op.Comm == trace.CommWorld, kind, o.op.Peer, o.op.Proc)
		if mism != nil {
			n.out.Up(*mism)
		}
		if emit {
			n.stats.CollReadys++
			k := collKey{o.op.Comm, o.wave}
			if !o.collAcked && !n.ackedEarly[k] {
				setKey(&n.readySent, k, append(n.readySent[k], r))
			}
			n.out.Up(r)
		}
	case kind.IsRecv() && kind != trace.Iprobe:
		if o.matched {
			n.sendRecvActive(o)
		}
	case kind.IsSend():
		for _, pa := range o.probeAcks {
			n.handshake(pa.FromNode, PeerMsg{Type: PeerRecvActiveAck, RecvProc: pa.RecvProc, RecvTS: pa.RecvTS})
		}
		o.probeAcks = nil
		if o.gotRecvActive {
			n.completeSendHandshake(rs, o)
		}
	}
}

// canAdvance evaluates whether the current operation may advance, including
// the completion rules (Rule 4) over the request records.
func (n *Node) canAdvance(rs *rankState, o *opState) bool {
	if o.canAdv {
		return true
	}
	if !o.op.Kind.IsCompletion() {
		return false
	}
	any := o.op.Kind.IsWaitAnySemantics()
	pending := 0
	for _, rq := range o.op.Reqs {
		pend, known := rs.request(rq)
		if !known {
			continue // unknown/freed request: does not constrain
		}
		if pend == nil {
			if any {
				return true
			}
			continue
		}
		pending++
	}
	if any {
		return pending == 0 // no live requests at all: returns immediately
	}
	return pending == 0
}

// tryAdvance applies transitions for one rank until none applies (or the
// node is frozen for a consistent state).
func (n *Node) tryAdvance(rs *rankState) {
	if n.frozen {
		return
	}
	for {
		o := rs.ops.get(rs.l)
		if o == nil || o.op.Kind == trace.Finalize {
			return
		}
		if !o.active {
			n.activate(rs, o)
		}
		if !n.canAdvance(rs, o) {
			return
		}
		n.retire(rs, o)
		rs.l++
		if next := rs.ops.get(rs.l); next != nil && !next.active {
			n.activate(rs, next)
		}
	}
}

// retire marks an operation advanced-past and reclaims its window entry
// when nothing can still arrive for it.
func (n *Node) retire(rs *rankState, o *opState) {
	o.retired = true
	n.retiredOps++
	kind := o.op.Kind
	switch {
	case kind.IsNonBlockingP2P():
		// Keep until the match handshake finished (messages may still
		// arrive); completions use the request record afterwards.
		if o.commComplete {
			n.dropOp(rs, o.op.TS)
		}
	case kind == trace.Wait || kind == trace.Waitall:
		// The call returned every request it named, and MPI freed them.
		for _, rq := range o.op.Reqs {
			rs.reqs.del(rq)
		}
		n.dropOp(rs, o.op.TS)
	default:
		n.dropOp(rs, o.op.TS)
	}
}

// newOpState returns a fresh record for op from the free list, which is
// refilled a chunk of records at a time. With the list empty, every record
// the node allocated is stored in a window, so sizing the chunk by the
// window doubles the node's records each time, up to opChunk: a node that
// never stores more than a few operations allocates only a few records.
func (n *Node) newOpState(op *trace.Op) *opState {
	if len(n.free) == 0 {
		chunk := make([]opState, min(max(n.curWindow, 1), opChunk))
		for i := range chunk {
			n.free = append(n.free, &chunk[i])
		}
	}
	o := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	o.op = *op // reclaimed records are zeroed by dropOp
	o.peerProc, o.resolvedGr = -1, -1
	return o
}

// opChunk is how many operation records one allocation provides.
const opChunk = 64

// dropOp reclaims a stored operation's window slot and record.
func (n *Node) dropOp(rs *rankState, ts int) {
	if o := rs.ops.take(ts); o != nil {
		*o = opState{}
		n.free = append(n.free, o)
		n.curWindow--
	}
}

// CurrentTS returns l_i for a hosted rank (test/debug accessor).
func (n *Node) CurrentTS(rank int) int { return n.rank(rank).l }

// Finished reports whether a hosted rank reached MPI_Finalize (or returned).
func (n *Node) Finished(rank int) bool {
	rs := n.rank(rank)
	if rs.done {
		return true
	}
	o := rs.ops.get(rs.l)
	return o != nil && o.op.Kind == trace.Finalize
}

// AllIdle reports whether every hosted rank is finished (used by drivers to
// detect clean termination).
func (n *Node) AllIdle() bool {
	for i := range n.ranks {
		rs := &n.ranks[i]
		if rs.done {
			continue
		}
		o := rs.ops.get(rs.l)
		if o == nil || o.op.Kind != trace.Finalize {
			return false
		}
	}
	return true
}
