package tbon

// This file is the TBON's network fabric: the TCP substrate that lets tool
// nodes run as separate OS processes. The process topology is a hub: every
// worker process owns a contiguous slice of the first tool layer and holds
// exactly one connection, to the coordinator, which owns every layer above
// (and the driver). Worker ↔ worker intralayer traffic is forwarded by the
// coordinator on the frame header alone — no payload decode on the relay
// path.
//
// The fabric deliberately provides only an unreliable datagram-ish service
// on top of TCP: frames pushed while a connection is down are dropped, and
// a connection can die at any time. Reliability is the job of the existing
// frame layer (transport.go) — every tool message crossing the wire is
// sequence-numbered per directed link, resequenced at the receiver, and
// retransmitted by the scanner until acknowledged. That split keeps the
// wire-level fault proxy honest: it can drop, duplicate, delay or partition
// real frames and the tool must heal exactly as it would under real packet
// loss.
//
// Reconnection is incarnation-fenced (a counter per slot): the first
// hello of a worker slot is assigned a fresh incarnation; a reconnecting
// live process presents it and is re-admitted; a *new* process claiming an
// already-assigned slot is fenced — its predecessor's in-memory protocol
// state died with it, so resurrection would be silent corruption. A slot
// unreachable past the degradation budget is spliced out through the same
// OnNodeDown path a crashed in-process node takes, degrading the report
// (Unknown ranks) instead of wedging the run.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/dws"
	"dwst/internal/supervise"
	"dwst/internal/wire"
)

// NetRole selects a process's place in the distributed tree.
type NetRole int

const (
	// NetCoordinator owns every tool layer above the first, the root, and
	// the application (event injection); it listens for workers.
	NetCoordinator NetRole = 1 + iota
	// NetWorker owns a contiguous slice of the first tool layer and dials
	// the coordinator.
	NetWorker
)

// NetConfig activates the TCP fabric when set on Config.Net. Worker
// processes normally obtain theirs from WorkerSession.TreeConfig rather
// than building one by hand.
type NetConfig struct {
	// Role is NetCoordinator or NetWorker.
	Role NetRole
	// Workers is the number of worker processes the first layer is
	// partitioned over.
	Workers int
	// Worker is this process's slot (worker role only).
	Worker int
	// Listen is the coordinator's listen address (default "127.0.0.1:0";
	// the effective address is Tree.ListenAddr).
	Listen string
	// KeepAlive is the liveness cadence: the coordinator pings and workers
	// report progress every KeepAlive/2; a connection silent for several
	// KeepAlive intervals is declared dead (default 200ms).
	KeepAlive time.Duration
	// Budget is the graceful-degradation budget: how long a worker may stay
	// unreachable (reconnecting) before the coordinator splices its nodes
	// out and degrades the report — and how long a disconnected worker
	// retries before giving up (default 3s).
	Budget time.Duration
	// Recover, on the coordinator, activates supervised worker respawn:
	// every input frame routed to a first-layer leaf is journaled, and a
	// respawned worker process presenting a coordinator-issued recovery
	// token (Tree.PrepareRespawn) is re-admitted under a new incarnation
	// with its leaves' journaled inputs shipped for exact replay — instead
	// of being fenced as a fresh claimant.
	Recover bool
	// JournalCap bounds the shipment journal per first-layer leaf, in
	// entries (default supervise.DefaultCap). A leaf whose history outgrows
	// the cap is past exact recovery; the slot then degrades honestly.
	JournalCap int
	// LeafGids, on workers, overrides the first-layer gid assignment with
	// the coordinator's current view (welcome.LeafGids): after a supervised
	// respawn the two drift apart, and a late (re)joining worker building
	// the default identity assignment would address retired gids.
	LeafGids []int
	// FinalStats, on workers, supplies the tool-layer numbers for the final
	// report sent to the coordinator at shutdown. Called after the tree's
	// workers have stopped.
	FinalStats func() (stats dws.Stats, windowHighWater int)

	// session carries the established handshake from DialWorkerResume into the
	// worker's fabric.
	session *WorkerSession
}

func (nc *NetConfig) keepAlive() time.Duration {
	if nc.KeepAlive > 0 {
		return nc.KeepAlive
	}
	return 200 * time.Millisecond
}

func (nc *NetConfig) budget() time.Duration {
	if nc.Budget > 0 {
		return nc.Budget
	}
	return 3 * time.Second
}

// readTimeout is the per-frame read deadline: generous multiples of the
// keepalive cadence so scheduling hiccups don't masquerade as partitions.
func (nc *NetConfig) readTimeout() time.Duration {
	if d := 8 * nc.keepAlive(); d > 500*time.Millisecond {
		return d
	}
	return 500 * time.Millisecond
}

const (
	handshakeTimeout = 5 * time.Second
	writeTimeout     = 5 * time.Second
	// remoteMaxAttempts effectively unbounds retransmission of wire frames:
	// permanent loss is decided by the degradation budget (which drops the
	// whole link), not by an attempt counter tuned for in-process faults.
	remoteMaxAttempts = 1 << 20
)

// ownerOfLeaf maps a first-layer node index to the worker slot owning it
// (contiguous partition).
func ownerOfLeaf(idx, width0, workers int) int {
	return idx * workers / width0
}

// leavesOf lists the first-layer indices worker slot w owns.
func (fab *netFabric) leavesOf(w int) []int {
	var idxs []int
	for idx := 0; idx < fab.width0; idx++ {
		if ownerOfLeaf(idx, fab.width0, fab.nc.Workers) == w {
			idxs = append(idxs, idx)
		}
	}
	return idxs
}

// sendq is a per-connection outbound frame queue: pushes while the
// connection is down are dropped (the reliable layer re-sends anything that
// matters), and the attached writer goroutine drains it in order.
//
// The queue is bounded in bytes when the tree has a resource governor: a
// live-but-not-draining connection (a flapping peer, a stalled wire-proxy
// link) used to grow q without limit. Crossing maxBytes now cuts the
// connection through onFull — the same path a failed write takes — dropping
// the queued frames (released from the budget; the reliable layer re-sends
// what matters) and letting the existing degradation-budget/respawn
// machinery decide the slot's fate.
type sendq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	conn   net.Conn
	q      [][]byte
	bytes  int64
	up     bool
	closed bool

	gov      *governor
	maxBytes int64          // the connection's slice of the budget
	onFull   func(net.Conn) // overflow cut; set once before any push
}

func newSendq(gov *governor, maxBytes int64) *sendq {
	s := &sendq{gov: gov, maxBytes: maxBytes}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// dropLocked discards the queued frames, returning their bytes to the
// budget. Callers hold s.mu.
func (s *sendq) dropLocked() {
	for _, b := range s.q {
		s.gov.release(govWire, int64(len(b)))
	}
	s.q = nil
	s.bytes = 0
}

// push queues one frame and reports whether it did: frames pushed while
// the connection is down are dropped.
func (s *sendq) push(b []byte) bool { return s.pushBuilt(b, nil) }

// pushBuilt is push for a frame that build makes under the queue lock (b is
// then nil): what build reads is older than every frame queued after it.
func (s *sendq) pushBuilt(b []byte, build func() []byte) (queued bool) {
	var overflowConn net.Conn
	s.mu.Lock()
	if build != nil && s.up && !s.closed {
		b = build()
	}
	if b != nil && s.up && !s.closed {
		// Overflow cut only with frames already queued: a single frame
		// larger than the cap must still be acceptable on an empty queue,
		// or the retransmitter would cut the fresh connection forever.
		if len(s.q) > 0 && s.bytes+int64(len(b)) > s.maxBytes {
			overflowConn = s.conn
			s.dropLocked()
		} else {
			s.q = append(s.q, b)
			s.bytes += int64(len(b))
			s.gov.charge(govWire, int64(len(b)))
			s.cond.Signal()
			queued = true
		}
	}
	s.mu.Unlock()
	if overflowConn != nil {
		s.gov.overflow.Add(1)
		if s.onFull != nil {
			s.onFull(overflowConn)
		}
	}
	return queued
}

// attach installs a new connection, returning the previous one (the caller
// closes it). Frames queued for the old connection are discarded.
func (s *sendq) attach(c net.Conn) net.Conn {
	s.mu.Lock()
	old := s.conn
	s.conn = c
	s.up = !s.closed
	s.dropLocked()
	s.mu.Unlock()
	return old
}

// detach marks the connection down if c is still current; reports whether
// it was.
func (s *sendq) detach(c net.Conn) bool {
	s.mu.Lock()
	was := s.conn == c
	if was {
		s.conn = nil
		s.up = false
		s.dropLocked()
	}
	s.mu.Unlock()
	return was
}

func (s *sendq) isUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

func (s *sendq) current() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// close shuts the queue down permanently and returns the live connection
// (if any) for the caller to close.
func (s *sendq) close() net.Conn {
	s.mu.Lock()
	s.closed = true
	old := s.conn
	s.conn = nil
	s.up = false
	s.dropLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	return old
}

// pop blocks until frames are queued on a live connection (returning both)
// or the queue is closed (returning nil).
func (s *sendq) pop() (net.Conn, [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, nil
		}
		if s.up && len(s.q) > 0 {
			batch := s.q
			for _, b := range batch {
				s.gov.release(govWire, int64(len(b)))
			}
			s.q = nil
			s.bytes = 0
			return s.conn, batch
		}
		s.cond.Wait()
	}
}

// workerSlot is the coordinator's per-worker connection state.
type workerSlot struct {
	w  int
	sq *sendq

	mu sync.Mutex
	// inc is the slot's incarnation fence: the incarnation last handed out
	// (0 = never assigned). A hello presenting any other nonzero value is
	// stale; PrepareRespawn bumps it to fence the dead incarnation.
	inc      uint64
	degraded bool // spliced out after budget exhaustion
	everUp   bool
	lastDown time.Time
	// lastProgress is the last observed sign of life from a worker: token
	// mint, validated resume hello, each shipped recovery chunk, replay
	// completion and admission — never a fenced hello. The budget clock
	// counts from max(lastDown, lastProgress), so a slow-but-alive respawn
	// is not spliced out mid-recovery.
	lastProgress time.Time
	// resumeToken is the one-shot recovery token minted by PrepareRespawn;
	// cleared on first use so a second claimant is fenced.
	resumeToken string
	final       *WorkerFinal

	// busy holds one unit of the coordinator's outstanding work while the
	// worker may have work of its own (see markBusy).
	busy    atomic.Bool
	finalCh chan struct{} // closed when final received
}

// netFabric is one process's half of the TCP fabric.
type netFabric struct {
	t      *Tree
	nc     *NetConfig
	role   NetRole
	width0 int

	closed       chan struct{}
	closeOnce    sync.Once
	shutdownOnce sync.Once
	wg           sync.WaitGroup

	bytesOut    atomic.Uint64
	bytesIn     atomic.Uint64
	codecErrors atomic.Uint64
	reconnects  atomic.Uint64

	// Coordinator state.
	ln        net.Listener
	slots     []*workerSlot
	ready     chan struct{}
	readyOnce sync.Once
	win       []chan struct{}      // per-leaf in-flight rank-event window
	journals  []*supervise.Journal // per-leaf shipment journals (Recover only)

	respawns       atomic.Uint64
	shippedEntries atomic.Uint64
	replayNanos    atomic.Int64

	// Worker state.
	sess         *WorkerSession
	wsq          *sendq
	done         chan error
	doneOnce     sync.Once
	shuttingDown atomic.Bool
	rankRsq      map[linkKey]*reseq // touched only by the (serial) reader
	kick         chan struct{}      // idle edge → stats reporter (capacity 1)
	replayed     uint64             // journal entries replayed (serial reader only)
	replayT0     time.Time          // replay start (serial reader only)
}

// startNet builds the fabric for a tree whose Config.Net is set. Called
// from NewNet after the topology exists.
func (t *Tree) startNet() error {
	nc := t.cfg.Net
	fab := &netFabric{
		t:      t,
		nc:     nc,
		role:   nc.Role,
		width0: len(t.FirstLayer()),
		closed: make(chan struct{}),
	}
	t.net = fab
	// Each connection's outbound queue gets a slice of the global budget.
	wireCap := t.gov.budget / 4
	if wireCap < 1<<20 {
		wireCap = 1 << 20
	}
	switch nc.Role {
	case NetCoordinator:
		addr := nc.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("tbon: listen %s: %w", addr, err)
		}
		fab.ln = ln
		fab.ready = make(chan struct{})
		fab.slots = make([]*workerSlot, nc.Workers)
		for w := range fab.slots {
			sl := &workerSlot{w: w, sq: newSendq(t.gov, wireCap), finalCh: make(chan struct{})}
			// An overflowing queue cuts its connection exactly like a failed
			// write: through the slot's degradation/respawn machinery.
			sl.sq.onFull = func(c net.Conn) { fab.slotConnFailed(sl, c) }
			fab.slots[w] = sl
			fab.wg.Add(1)
			go fab.writer(sl.sq, func(c net.Conn) { fab.slotConnFailed(sl, c) })
		}
		fab.win = make([]chan struct{}, fab.width0)
		for i := range fab.win {
			fab.win[i] = make(chan struct{}, t.cfg.EventBuf)
		}
		if nc.Recover {
			fab.journals = make([]*supervise.Journal, fab.width0)
			for i := range fab.journals {
				fab.journals[i] = supervise.NewJournal(nc.JournalCap)
			}
		}
		fab.wg.Add(2)
		go fab.acceptLoop()
		go fab.monitor()
	case NetWorker:
		if nc.session == nil {
			return errors.New("tbon: worker NetConfig requires a DialWorkerResume session")
		}
		fab.sess = nc.session
		fab.wsq = newSendq(t.gov, wireCap)
		fab.wsq.onFull = func(c net.Conn) {
			fab.wsq.detach(c)
			c.Close()
		}
		fab.done = make(chan error, 1)
		fab.rankRsq = make(map[linkKey]*reseq)
		fab.kick = make(chan struct{}, 1)
		fab.kickStats() // an idle worker announces itself at once
		if nc.session.resumed {
			// The recovery shipment is work the queues cannot see yet: hold
			// one unit until its Last chunk is replayed (applyRecover).
			t.admit(1)
		}
		fab.wsq.attach(nc.session.conn)
		fab.wg.Add(3)
		go fab.workerConnLoop()
		go fab.writer(fab.wsq, func(c net.Conn) {
			fab.wsq.detach(c)
			c.Close()
		})
		go fab.workerStats()
	default:
		return fmt.Errorf("tbon: invalid NetConfig.Role %d", nc.Role)
	}
	return nil
}

// leafIndex maps a gid to its first-layer index, or -1 when the gid is not
// a live leaf gid (a layer ≥ 1 node, the synthetic -1 of rank links, or a
// gid retired by a supervised respawn). Ownership, routing and the
// rank-event window are all index-based underneath the gids.
func (fab *netFabric) leafIndex(gid int) int {
	if n := fab.t.shape.Load().gidIndex[gid]; n != nil && n.layer == 0 {
		return n.index
	}
	return -1
}

// ownsGid reports whether a global node id lives in this process. Ids that
// are not live first-layer gids (including the synthetic -1 used for rank
// links and gids retired by respawns) belong to the coordinator.
func (fab *netFabric) ownsGid(gid int) bool {
	idx := fab.leafIndex(gid)
	if idx < 0 {
		return fab.role == NetCoordinator
	}
	if fab.role == NetCoordinator {
		return false
	}
	return ownerOfLeaf(idx, fab.width0, fab.nc.Workers) == fab.nc.Worker
}

// connUp reports whether the connection toward the process owning gid is
// currently live (used by the scanner to park retransmissions during an
// outage instead of burning attempts).
func (fab *netFabric) connUp(gid int) bool {
	if fab.role == NetWorker {
		return fab.wsq.isUp()
	}
	idx := fab.leafIndex(gid)
	if idx < 0 {
		return true
	}
	return fab.slots[ownerOfLeaf(idx, fab.width0, len(fab.slots))].sq.isUp()
}

// encodeFrame serializes one frame (gob payload + wire header). A nil body
// (pings, shutdown) yields an empty payload.
func (fab *netFabric) encodeFrame(kind wire.Kind, dst int32, body any) ([]byte, bool) {
	var payload []byte
	if body != nil {
		var err error
		payload, err = encodePayload(body)
		if err != nil {
			fab.codecErrors.Add(1)
			return nil, false
		}
	}
	buf, err := wire.Append(make([]byte, 0, wire.HeaderLen+len(payload)), wire.Frame{Kind: kind, Dst: dst, Payload: payload})
	if err != nil {
		fab.codecErrors.Add(1)
		return nil, false
	}
	return buf, true
}

// route queues an encoded frame toward the process owning dst. Frames to
// retired gids are dropped: their live successors travel on the fresh link
// the respawn migration re-keyed them onto. On the coordinator, a frame
// marks its worker's slot busy: it may give the worker work.
func (fab *netFabric) route(dst int32, buf []byte) {
	if fab.role == NetWorker {
		fab.wsq.push(buf)
		return
	}
	if idx := fab.leafIndex(int(dst)); idx >= 0 {
		sl := fab.slots[ownerOfLeaf(idx, fab.width0, len(fab.slots))]
		if sl.sq.push(buf) {
			fab.markBusy(sl)
		}
	}
}

func (fab *netFabric) send(kind wire.Kind, dst int32, body any) {
	if buf, ok := fab.encodeFrame(kind, dst, body); ok {
		fab.route(dst, buf)
	}
}

// sendData ships one reliable-layer frame (env.msg must be a frame). With
// recovery on, frames destined to first-layer leaves are write-ahead
// journaled before they can reach the wire: this path carries every
// coordinator-originated input (rank events and down-link traffic,
// retransmits included — the journal dedups by sequence), which together
// with the relay capture in forward makes the per-leaf journal a complete
// input history.
func (fab *netFabric) sendData(env envelope) {
	f := env.msg.(frame)
	wd := wireData{From: env.from, To: f.key.to, FromG: f.key.from, Class: f.key.class, Seq: f.seq, Msg: f.msg}
	if fab.journals == nil {
		fab.send(wire.KindData, int32(f.key.to), wd)
		return
	}
	payload, err := encodePayload(wd)
	if err != nil {
		fab.codecErrors.Add(1)
		return
	}
	if idx := fab.leafIndex(f.key.to); idx >= 0 {
		// encodePayload's buffer is fresh — the journal may own it as-is.
		fab.journals[idx].Record(supervise.LinkID{From: f.key.from, Class: int(f.key.class), Dst: f.key.to}, int64(f.seq), payload)
	}
	buf, err := wire.Append(make([]byte, 0, wire.HeaderLen+len(payload)), wire.Frame{Kind: wire.KindData, Dst: int32(f.key.to), Payload: payload})
	if err != nil {
		fab.codecErrors.Add(1)
		return
	}
	fab.route(int32(f.key.to), buf)
}

// sendAck ships one cumulative acknowledgement to the process owning the
// link's sender.
func (fab *netFabric) sendAck(key linkKey, upTo uint64) {
	fab.send(wire.KindAck, int32(key.from), wireAck{To: key.to, FromG: key.from, Class: key.class, UpTo: upTo})
}

// writeSync writes one frame directly (handshake and final report, which
// must not race the queued data path).
func (fab *netFabric) writeSync(conn net.Conn, kind wire.Kind, body any) error {
	buf, ok := fab.encodeFrame(kind, -1, body)
	if !ok {
		return errors.New("tbon: encode failed")
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(buf)
	if err == nil {
		fab.bytesOut.Add(uint64(len(buf)))
	}
	return err
}

// writer drains one sendq for as long as the fabric lives; a failed write
// reports the connection through onFail and keeps serving its successors.
func (fab *netFabric) writer(sq *sendq, onFail func(net.Conn)) {
	defer fab.wg.Done()
	for {
		conn, batch := sq.pop()
		if conn == nil {
			return
		}
		for _, b := range batch {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(b); err != nil {
				onFail(conn)
				break
			}
			fab.bytesOut.Add(uint64(len(b)))
		}
	}
}

func (fab *netFabric) isClosed() bool {
	select {
	case <-fab.closed:
		return true
	default:
		return false
	}
}

// close tears the fabric down: listener, connections, and every fabric
// goroutine. Idempotent.
func (fab *netFabric) close() {
	fab.closeOnce.Do(func() {
		close(fab.closed)
		if fab.ln != nil {
			fab.ln.Close()
		}
		for _, sl := range fab.slots {
			if c := sl.sq.close(); c != nil {
				c.Close()
			}
		}
		if fab.wsq != nil {
			if c := fab.wsq.close(); c != nil {
				c.Close()
			}
		}
	})
	fab.wg.Wait()
}
