package dws

import (
	"fmt"
	"slices"
	"time"

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

	ranks map[int]*rankState
	match *p2pmatch.Engine
	coll  *collmatch.Leaf

	// collOps indexes hosted collective operations by (comm, wave) for
	// collectiveAck application; ackedEarly records acks that arrived before
	// the local operation.
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

	// quiet is the progress-watchdog quiet period: a hosted rank that is
	// alive, not blocked in a call, and issued no MPI call for longer than
	// quiet is reported Stalled. Zero disables the watchdog.
	quiet time.Duration

	// dirty tracks peers this node sent wait-state messages to since the
	// last snapshot. The consistent-state ping-pong must cover them all: an
	// acknowledgement can be in transit even when the local send operation
	// already completed its handshake (and its rank finished), so pinging
	// only the hosts of currently-active sends would leave a stale-report
	// race.
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
	// keeps the destinations in first-touch order so the flush is
	// deterministic and allocation-free.
	batch    bool
	pendPeer map[int][]any
	pendDest []int

	// self holds the peer messages this node addressed to itself, in send
	// order. Every exported entry point consumes them (drainSelf) before it
	// returns, so a self-addressed handshake costs no flush, queue hop or
	// delivery cycle, and the self link is empty at every entry-point
	// boundary: checkpoints need not capture it and snapshots need not ping
	// it.
	self []any

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
	reqs    map[trace.ReqID]int // request → timestamp of the operation that created it
	collSeq map[trace.CommID]int
	// creating holds each Comm_dup/Comm_split call with the (parent
	// communicator, wave) it ran in, until the rank's CommInfo event for that
	// call was consumed. The window entry cannot serve: the collective's Ack
	// can overtake the trailing CommInfo (different links into the node loop)
	// and retires the operation first.
	creating []creation
	done     bool // returned from the program (Done event)
	lastTS   int  // highest timestamp received

	// crashed/lastCall record the rank's death (RankDown event).
	crashed  bool
	lastCall int

	// Progress-watchdog bookkeeping: enters counts processed Enter events,
	// beatCalls is the rank's call counter carried by the latest heartbeat,
	// lastProgress the arrival time of the rank's latest event (stamped only
	// while the watchdog is on). A rank is Stalled when it is between calls,
	// its event stream is drained (beatCalls <= enters), and lastProgress is
	// older than the quiet period.
	enters       int
	beatCalls    int
	lastProgress time.Time
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
	probeAcks     []RecvActive // probe requests awaiting our activation
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

// NewNode creates a tracker for the given hosted world ranks.
func NewNode(id int, hosted []int, nodeFor func(int) int, out Out) *Node {
	n := &Node{
		id:         id,
		nodeFor:    nodeFor,
		out:        out,
		ranks:      make(map[int]*rankState, len(hosted)),
		match:      p2pmatch.NewEngine(),
		coll:       collmatch.NewLeaf(id, len(hosted)),
		collOps:    make(map[collKey][]opRef),
		ackedEarly: make(map[collKey]bool),
		dirty:      make(map[int]bool),
		deadPeers:  make(map[int]bool),
		deadRanks:  make(map[int]bool),
		passSeen:   make(map[int]int),
		readySent:  make(map[collKey][]collmatch.Ready),
	}
	now := time.Now()
	for _, r := range hosted {
		n.ranks[r] = &rankState{
			rank:         r,
			reqs:         make(map[trace.ReqID]int),
			collSeq:      make(map[trace.CommID]int),
			lastTS:       -1,
			lastProgress: now,
		}
	}
	return n
}

// SetWatchdogQuiet configures the progress watchdog's quiet period (zero
// disables stall detection).
func (n *Node) SetWatchdogQuiet(d time.Duration) { n.quiet = d }

// ID returns the node's first-layer index.
func (n *Node) ID() int { return n.id }

// WindowHighWater returns the maximum number of simultaneously stored
// operations (the trace-window size of Sec. 4.2).
func (n *Node) WindowHighWater() int { return n.maxWindow }

// WindowSize returns the operations currently stored.
func (n *Node) WindowSize() int { return n.curWindow }

// Frozen reports whether the transition system is frozen for a snapshot.
func (n *Node) Frozen() bool { return n.frozen }

// peer sends a wait-state message to a first-layer node, recording it for
// the snapshot ping set (unless it is this node) and the message statistics.
func (n *Node) peer(node int, msg any) {
	if node != n.id {
		n.dirty[node] = true
	}
	switch msg.(type) {
	case PassSend:
		n.stats.PassSends++
	case RecvActive:
		n.stats.RecvActives++
	case RecvActiveAck:
		n.stats.RecvActiveAcks++
	}
	n.sendPeer(node, msg)
}

// sendPeer routes one intralayer message through the per-destination
// coalescing buffer, or straight out when batching is off; a message to this
// node itself joins the self queue instead. ALL peer traffic — wait-state
// messages and the snapshot Ping/Pong alike — must take this path: the
// consistent-state protocol's drain argument rests on per-link FIFO between
// them, which a Ping bypassing a buffered PassSend would break (the
// ping-pong would "prove" a message consumed that is still sitting in this
// node's buffer — a false-deadlock hazard).
func (n *Node) sendPeer(node int, msg any) {
	if node == n.id {
		n.self = append(n.self, msg)
		return
	}
	if !n.batch {
		n.out.Peer(node, msg)
		return
	}
	// Dedup by buffered length, not map presence: FlushPeers retains each
	// destination's (emptied) slice for reuse, so the key stays in the map
	// across cycles.
	msgs := n.pendPeer[node]
	if len(msgs) == 0 {
		n.pendDest = append(n.pendDest, node)
	}
	n.pendPeer[node] = append(msgs, msg)
}

// SetBatch switches per-destination coalescing on or off. Call before any
// traffic flows (or right after construction on a recovery respawn).
func (n *Node) SetBatch(on bool) {
	n.batch = on
	if on && n.pendPeer == nil {
		n.pendPeer = make(map[int][]any)
	}
}

// FlushPeers ships everything coalesced in the current delivery cycle: the
// bare message when a destination accumulated exactly one (so the unbatched
// message shapes stay on the wire for singleton traffic), one Batch
// otherwise. The substrate calls it at the end of every cycle; recovery
// calls it before swapping output surfaces. No-op when nothing is pending.
func (n *Node) FlushPeers() {
	if len(n.pendDest) == 0 {
		return
	}
	for _, dest := range n.pendDest {
		msgs := n.pendPeer[dest]
		if len(msgs) == 1 {
			n.out.Peer(dest, msgs[0])
		} else {
			n.out.Peer(dest, Batch{FromNode: n.id, Msgs: append([]any(nil), msgs...)})
		}
		// Keep the per-destination slice for reuse; the stale references are
		// overwritten by the next cycle's appends.
		n.pendPeer[dest] = msgs[:0]
	}
	n.pendDest = n.pendDest[:0]
}

// drainSelf consumes the self queue in FIFO order, including what the
// consumed messages add to it. Exported entry points that can emit
// wait-state messages call it last.
func (n *Node) drainSelf() {
	for i := 0; i < len(n.self); i++ {
		n.onPeer(n.self[i])
	}
	clear(n.self)
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
	for r := range n.ranks {
		total += n.match.PendingSends(r)
	}
	return total
}

func (n *Node) rank(r int) *rankState {
	rs := n.ranks[r]
	if rs == nil {
		panic(fmt.Sprintf("dws: node %d does not host rank %d", n.id, r))
	}
	return rs
}

// OnEvent processes one application event of a hosted rank. While the node
// is frozen for a consistent state, events are deferred: a snapshot must
// only reflect operations whose derived messages the ping-pong protocol
// covers, otherwise two operations arriving mid-snapshot on different nodes
// could be reported mutually blocked before their handshake ran — a false
// deadlock.
func (n *Node) OnEvent(ev event.Event) {
	if ev.Type == event.Heartbeat {
		// Pure watchdog bookkeeping: no transition-system state is touched,
		// so heartbeats are safe to absorb even while frozen (deferring them
		// would let a snapshot hide a stall).
		rs := n.rank(ev.Proc)
		rs.beatCalls = ev.TS
		return
	}
	if n.frozen {
		n.deferred = append(n.deferred, ev)
		return
	}
	n.processEvent(&ev)
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
		rs := n.rank(ev.Proc)
		rs.done = true
		n.progress(rs)
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
	n.deadRanks[rank] = true
	n.match.DropRank(rank)
	if rs := n.ranks[rank]; rs != nil {
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

// progress stamps a rank's watchdog clock. Only the watchdog reads it, so
// without one the clock is not read either.
func (n *Node) progress(rs *rankState) {
	if n.quiet > 0 {
		rs.lastProgress = time.Now()
	}
}

// newOp is Figure 7's newOp handler.
func (n *Node) newOp(op *trace.Op) {
	rs := n.rank(op.Proc)
	rs.lastTS = op.TS
	rs.enters++
	n.progress(rs)
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
		n.peer(n.nodeFor(op.PeerWorld), PassSend{
			SendProc: op.Proc, SendTS: op.TS,
			SrcGroup: op.SelfGroup,
			Dest:     op.PeerWorld, Tag: op.Tag, Comm: op.Comm,
			Kind: kind, FromNode: n.id,
		})
		if kind.IsNonBlockingP2P() {
			rs.reqs[op.Req] = op.TS
		}

	case kind == trace.Iprobe:
		// Iprobe does not block and does not constrain matching.
		o.canAdv = true

	case kind.IsRecv():
		if !kind.Blocking() {
			o.canAdv = true
		}
		if kind.IsNonBlockingP2P() {
			rs.reqs[op.Req] = op.TS
		}
		n.applyMatches(n.match.AddRecv(p2pmatch.RecvInfo{
			Proc: op.Proc, TS: op.TS, Src: op.Peer, Tag: op.Tag,
			Comm: op.Comm, Probe: kind.IsProbe(),
		}))

	case kind.IsCollective():
		wave := rs.collSeq[op.Comm]
		rs.collSeq[op.Comm] = wave + 1
		o.wave = wave
		k := collKey{op.Comm, wave}
		if kind == trace.CommDup || kind == trace.CommSplit {
			rs.creating = append(rs.creating, creation{op.TS, k})
		}
		n.collOps[k] = append(n.collOps[k], opRef{op.Proc, op.TS})
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
	n.progress(rs)
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

// OnPeer dispatches an intralayer message. Batches unpack in send order —
// receivers understand them regardless of their own batch setting.
func (n *Node) OnPeer(from int, msg any) {
	n.onPeer(msg)
	n.drainSelf()
}

func (n *Node) onPeer(msg any) {
	switch m := msg.(type) {
	case PassSend:
		n.handlePassSend(m)
	case RecvActive:
		n.handleRecvActive(m)
	case RecvActiveAck:
		n.handleRecvActiveAck(m)
	case Ping:
		n.sendPeer(m.FromNode, Pong{Round: m.Round, Epoch: m.Epoch, FromNode: n.id})
	case Pong:
		n.handlePong(m)
	case Batch:
		for _, sub := range m.Msgs {
			n.onPeer(sub)
		}
	default:
		panic(fmt.Sprintf("dws: unexpected intralayer message %T", msg))
	}
}

// handlePassSend is Figure 7's handler: register the send with point-to-
// point matching; any produced match updates the receive and may trigger
// recvActive.
func (n *Node) handlePassSend(m PassSend) {
	if last, ok := n.passSeen[m.SendProc]; ok && m.SendTS <= last {
		return // duplicate across a crash-recovery incarnation boundary
	}
	n.passSeen[m.SendProc] = m.SendTS
	n.applyMatches(n.match.AddSend(p2pmatch.SendInfo{
		Proc: m.SendProc, TS: m.SendTS, Src: m.SrcGroup,
		Dest: m.Dest, Tag: m.Tag, Comm: m.Comm, Kind: m.Kind,
	}))
}

// applyMatches installs engine matches into the receive-side operation
// states (the receives are hosted on this node).
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
	n.peer(o.peerNode, RecvActive{
		SendProc: o.peerProc, SendTS: o.peerTS,
		RecvProc: o.op.Proc, RecvTS: o.op.TS,
		FromNode: n.id, Probe: o.op.Kind.IsProbe(),
	})
}

// handleRecvActive is Figure 7's handler on the send side.
func (n *Node) handleRecvActive(m RecvActive) {
	rs := n.rank(m.SendProc)
	o := rs.ops.get(m.SendTS)
	if o == nil {
		// The send already completed its handshake and was cleaned up; a
		// probe request can still arrive afterwards. Ack directly: the send
		// was certainly active.
		n.peer(m.FromNode, RecvActiveAck{RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		return
	}
	if m.Probe {
		if o.active {
			n.peer(m.FromNode, RecvActiveAck{RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		} else {
			o.probeAcks = append(o.probeAcks, m)
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
	n.peer(o.recvNode, RecvActiveAck{RecvProc: o.recvProc, RecvTS: o.recvTS})
	o.commComplete = true
	if o.op.Kind.Blocking() {
		o.canAdv = true
	}
	n.reclaimIfRetired(rs, o)
	n.tryAdvance(rs)
}

// handleRecvActiveAck is Figure 7's handler on the receive side.
func (n *Node) handleRecvActiveAck(m RecvActiveAck) {
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
// The records themselves: a blocking Wait/Waitall deletes the requests it
// returned (MPI freed them); requests completed through Waitany/Waitsome/
// Test* keep theirs, because a request that completed but was not returned
// must still read as done to a later call.
func (rs *rankState) request(rq trace.ReqID) (o *opState, known bool) {
	ts, ok := rs.reqs[rq]
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
		n.ackedEarly[k] = true
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
				n.readySent[k] = append(n.readySent[k], r)
			}
			n.out.Up(r)
		}
	case kind.IsRecv() && kind != trace.Iprobe:
		if o.matched {
			n.sendRecvActive(o)
		}
	case kind.IsSend():
		for _, pa := range o.probeAcks {
			n.peer(pa.FromNode, RecvActiveAck{RecvProc: pa.RecvProc, RecvTS: pa.RecvTS})
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
			delete(rs.reqs, rq)
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
	for _, rs := range n.ranks {
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
