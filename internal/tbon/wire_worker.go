package tbon

// Worker half of the TCP fabric (see wire.go), plus the tree-level API of
// the fabric: DialWorkerResume / WorkerSession for bootstrapping a worker
// process from nothing but an address and a slot id, the one dial loop
// (first hello and every reconnect) with backoff + jitter, and ServeWorker.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"dwst/internal/fault"
	"dwst/internal/wire"
)

// WorkerSession is an established worker handshake: the connection plus
// the tree configuration the coordinator's welcome carried.
type WorkerSession struct {
	Addr        string
	Worker      int
	Incarnation uint64
	// Extra is the coordinator's opaque tool-layer configuration blob.
	Extra any

	welcome wireWelcome
	conn    net.Conn
	br      *bufio.Reader
	resumed bool // admitted through the supervised-respawn handshake
}

// TreeConfig assembles the Config for this worker's tree replica. The
// caller may set Net.FinalStats before Start.
func (ws *WorkerSession) TreeConfig() Config {
	w := ws.welcome
	return Config{
		Leaves:          w.Leaves,
		FanIn:           w.FanIn,
		EventBuf:        w.EventBuf,
		PreferWaitState: w.PreferWS,
		Batch:           true, // the tool layer always batches
		MemBudget:       w.MemBudget,
		Net: &NetConfig{
			Role:      NetWorker,
			Workers:   w.Workers,
			Worker:    ws.Worker,
			KeepAlive: w.KeepAlive,
			Budget:    w.Budget,
			LeafGids:  w.LeafGids,
			session:   ws,
		},
	}
}

// Close releases the session's connection; only needed when the session is
// abandoned before a tree adopts it.
func (ws *WorkerSession) Close() error { return ws.conn.Close() }

// DialWorkerResume connects a worker process to the coordinator, retrying
// with backoff + jitter until the handshake succeeds or timeout (default
// 5s) expires. A fencing rejection is permanent and returned immediately.
// A non-empty token makes the hello a supervised respawn: it presents the
// coordinator-issued one-shot recovery token, and an accepted handshake is
// followed (on the same connection, before any live frame) by the journal
// shipment the new tree replays during startup. An invalid or reused token
// is a fencing rejection.
func DialWorkerResume(addr string, worker int, timeout time.Duration, token string) (*WorkerSession, error) {
	if worker < 0 {
		return nil, fmt.Errorf("tbon: invalid worker id %d", worker)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, br, w, err := dialLoop(addr, worker, 0, token, timeout, nil, nil)
	if err != nil {
		return nil, err
	}
	return &WorkerSession{
		Addr:        addr,
		Worker:      worker,
		Incarnation: w.Incarnation,
		Extra:       w.Extra,
		welcome:     w,
		conn:        conn,
		br:          br,
		resumed:     token != "",
	}, nil
}

// dialLoop is the worker's one dial loop, for the first hello and every
// reconnect alike: hello/welcome exchanges with backoff + jitter until one
// is answered or budget runs out (for a reconnect, the coordinator's
// splice-out clock). A rejecting welcome is a permanent fencing and is
// returned at once. closed and quit (nil for the first dial) abort the wait
// between attempts.
func dialLoop(addr string, worker int, inc uint64, token string, budget time.Duration, closed, quit <-chan struct{}) (net.Conn, *bufio.Reader, wireWelcome, error) {
	deadline := time.Now().Add(budget)
	backoff := 25 * time.Millisecond
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(worker)<<32))
	for {
		conn, br, w, err := dialHello(addr, worker, inc, token, time.Until(deadline))
		if err == nil {
			if !w.OK {
				conn.Close()
				return nil, nil, wireWelcome{}, fmt.Errorf("tbon: coordinator fenced worker %d: %s", worker, w.Reason)
			}
			return conn, br, w, nil
		}
		if !time.Now().Before(deadline) {
			return nil, nil, wireWelcome{}, fmt.Errorf("tbon: dial coordinator %s failed past %v: %w", addr, budget, err)
		}
		select {
		case <-time.After(backoff + time.Duration(rng.Int63n(int64(backoff)))):
		case <-closed:
			return nil, nil, wireWelcome{}, errors.New("tbon: fabric closed")
		case <-quit:
			return nil, nil, wireWelcome{}, ErrStopped
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// dialHello performs one dial + hello/welcome exchange.
func dialHello(addr string, worker int, inc uint64, resume string, remaining time.Duration) (net.Conn, *bufio.Reader, wireWelcome, error) {
	to := time.Second
	if remaining > 0 && remaining < to {
		to = remaining
	}
	conn, err := net.DialTimeout("tcp", addr, to)
	if err != nil {
		return nil, nil, wireWelcome{}, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	payload, err := encodePayload(wireHello{Worker: worker, Incarnation: inc, Resume: resume})
	if err != nil {
		conn.Close()
		return nil, nil, wireWelcome{}, err
	}
	buf, err := wire.Append(make([]byte, 0, wire.HeaderLen+len(payload)), wire.Frame{Kind: wire.KindHello, Dst: -1, Payload: payload})
	if err != nil {
		conn.Close()
		return nil, nil, wireWelcome{}, err
	}
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, nil, wireWelcome{}, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, wireWelcome{}, err
	}
	if f.Kind != wire.KindWelcome {
		conn.Close()
		return nil, nil, wireWelcome{}, fmt.Errorf("tbon: unexpected handshake frame %v", f.Kind)
	}
	body, err := decodePayload(f.Payload)
	if err != nil {
		conn.Close()
		return nil, nil, wireWelcome{}, err
	}
	w, ok := body.(wireWelcome)
	if !ok {
		conn.Close()
		return nil, nil, wireWelcome{}, errors.New("tbon: malformed welcome")
	}
	return conn, br, w, nil
}

// signalDone delivers the worker fabric's terminal condition (nil = clean
// shutdown request) exactly once.
func (fab *netFabric) signalDone(err error) {
	fab.doneOnce.Do(func() { fab.done <- err })
}

// workerConnLoop owns the worker's connection lifecycle: read until the
// connection dies, then redial with the assigned incarnation until the
// budget expires.
func (fab *netFabric) workerConnLoop() {
	defer fab.wg.Done()
	conn, br := fab.sess.conn, fab.sess.br
	for {
		fab.workerRead(conn, br)
		if fab.shuttingDown.Load() || fab.isClosed() {
			return
		}
		select {
		case <-fab.t.quit:
			return
		default:
		}
		nc, nbr, _, err := dialLoop(fab.sess.Addr, fab.nc.Worker, fab.sess.Incarnation, "",
			fab.nc.budget(), fab.closed, fab.t.quit)
		if err != nil {
			fab.signalDone(err)
			return
		}
		if old := fab.wsq.attach(nc); old != nil && old != nc {
			old.Close()
		}
		fab.kickStats() // an idle worker re-announces itself at once
		conn, br = nc, nbr
	}
}

// workerRead drains the current connection until it dies or the
// coordinator asks for shutdown.
func (fab *netFabric) workerRead(conn net.Conn, br *bufio.Reader) {
	readTO := fab.nc.readTimeout()
	for {
		conn.SetReadDeadline(time.Now().Add(readTO))
		f, err := wire.ReadFrame(br)
		if err != nil {
			fab.wsq.detach(conn)
			conn.Close()
			return
		}
		fab.bytesIn.Add(uint64(wire.HeaderLen + len(f.Payload)))
		switch f.Kind {
		case wire.KindData:
			fab.deliverData(f.Payload)
		case wire.KindAck:
			fab.deliverAck(f.Payload)
		case wire.KindPing:
		case wire.KindDown:
			body, err := decodePayload(f.Payload)
			if wd, ok := body.(wireDown); err == nil && ok {
				for _, gid := range wd.Gids {
					fab.t.transport.dropLinksTo(gid)
				}
			} else {
				fab.codecErrors.Add(1)
			}
		case wire.KindRecover:
			body, err := decodePayload(f.Payload)
			if rc, ok := body.(wireRecover); err == nil && ok {
				fab.applyRecover(rc)
			} else {
				fab.codecErrors.Add(1)
			}
		case wire.KindRespawn:
			body, err := decodePayload(f.Payload)
			if wr, ok := body.(wireRespawn); err == nil && ok {
				fab.applyRespawn(wr)
			} else {
				fab.codecErrors.Add(1)
			}
		case wire.KindShutdown:
			fab.shuttingDown.Store(true)
			fab.signalDone(nil)
			return
		default:
			fab.codecErrors.Add(1)
		}
	}
}

// workerStats reports the worker's outstanding work to the coordinator:
// every KeepAlive/2 (it doubles as the worker → coordinator keepalive), and
// whenever the tree goes idle (kickStats), since the coordinator counts the
// worker busy until it reads a (0, 0) report. The pair is read under the
// send-queue lock, so no frame the worker sends afterwards overtakes it.
func (fab *netFabric) workerStats() {
	defer fab.wg.Done()
	ka := fab.nc.keepAlive() / 2
	if ka < time.Millisecond {
		ka = time.Millisecond
	}
	tick := time.NewTicker(ka)
	defer tick.Stop()
	build := func() []byte {
		v := fab.t.work.Load() & countsMask
		buf, _ := fab.encodeFrame(wire.KindStats, -1, wireStats{Worker: fab.nc.Worker, Work: v % frameUnit, InFlight: v / frameUnit})
		return buf
	}
	for {
		select {
		case <-fab.closed:
			return
		case <-tick.C:
		case <-fab.kick:
			if _, idle := fab.t.Idle(); !idle {
				continue // busy again: the next edge reports
			}
		}
		fab.wsq.pushBuilt(nil, build)
	}
}

// kickStats asks workerStats for a report (an idle edge); never blocks.
func (fab *netFabric) kickStats() {
	select {
	case fab.kick <- struct{}{}:
	default:
	}
}

// --- Tree-level fabric API ---

// ServeWorker blocks until the worker's fabric terminates: a clean
// shutdown request from the coordinator (returns nil, after sending the
// final report), a permanent fencing rejection, or a reconnect budget
// exhaustion. Call after Start.
func (t *Tree) ServeWorker() error {
	fab := t.net
	if fab == nil || fab.role != NetWorker {
		return errors.New("tbon: ServeWorker requires a worker NetConfig")
	}
	var reason error
	select {
	case reason = <-fab.done:
	case <-t.quit:
	}
	t.stopOnce.Do(func() { close(t.quit) })
	t.wg.Wait() // node loops and scanner quiesce before final stats
	if reason == nil && fab.shuttingDown.Load() {
		fin := WorkerFinal{Worker: fab.nc.Worker, Counters: t.Counters()}
		if fab.nc.FinalStats != nil {
			fin.MsgStats, fin.WindowHighWater = fab.nc.FinalStats()
		}
		if conn := fab.wsq.current(); conn != nil {
			fab.writeSync(conn, wire.KindFinal, fin)
		}
	}
	fab.close()
	return reason
}

// HaltNet abruptly severs a worker's fabric without the shutdown handshake
// — the in-process equivalent of kill -9 on the worker, used by fault
// tooling and tests. The coordinator sees the connection die and starts
// its budget clock; ServeWorker returns a halt error.
func (t *Tree) HaltNet() {
	fab := t.net
	if fab == nil || fab.role != NetWorker {
		return
	}
	fab.shuttingDown.Store(true) // suppress the redial loop
	fab.signalDone(errors.New("tbon: worker halted"))
	if c := fab.wsq.close(); c != nil {
		c.Close()
	}
}

// WaitReady blocks until every worker slot has connected at least once
// (coordinator; no-op otherwise). Timeout default 10s.
func (t *Tree) WaitReady(timeout time.Duration) error {
	fab := t.net
	if fab == nil || fab.role != NetCoordinator {
		return nil
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	select {
	case <-fab.ready:
		return nil
	case <-fab.closed:
		return errors.New("tbon: fabric closed")
	case <-time.After(timeout):
		var missing []int
		for _, sl := range fab.slots {
			sl.mu.Lock()
			if !sl.everUp {
				missing = append(missing, sl.w)
			}
			sl.mu.Unlock()
		}
		return fmt.Errorf("tbon: workers %v not connected after %v", missing, timeout)
	}
}

// ListenAddr returns the coordinator's effective listen address ("" when
// the fabric is off or this is a worker).
func (t *Tree) ListenAddr() string {
	if t.net == nil || t.net.ln == nil {
		return ""
	}
	return t.net.ln.Addr().String()
}

// WorkerFinals returns the final reports collected from workers during
// Stop (coordinator; nil otherwise or for workers that never reported).
func (t *Tree) WorkerFinals() []WorkerFinal {
	if t.net == nil {
		return nil
	}
	var out []WorkerFinal
	for _, sl := range t.net.slots {
		sl.mu.Lock()
		if sl.final != nil {
			out = append(out, *sl.final)
		}
		sl.mu.Unlock()
	}
	return out
}

// WireReplayTime returns the cumulative wall time respawned workers spent
// replaying shipped journals (as reported in their replay completion
// frames).
func (t *Tree) WireReplayTime() time.Duration {
	if t.net == nil {
		return 0
	}
	return time.Duration(t.net.replayNanos.Load())
}

// injectRemote ships one application event to a remote first-layer node
// over a sequenced RankLink frame. The per-leaf window semaphore mirrors
// the bounded in-process event queue: at most EventBuf events are in
// flight (unacknowledged) per leaf, so backpressure propagates to the
// injecting rank exactly as in channel mode.
func (t *Tree) injectRemote(n *Node, env rankEnvelope) error {
	fab := t.net
	if n.Dead() {
		return ErrNodeDown
	}
	wr := wireRank{Rank: env.from, Quiet: env.quiet, Ev: env.ev}
	if env.quiet {
		// A heartbeat travels unsequenced — no window slot, no outbox entry,
		// no ack — so it is never outstanding work; a lost one only skips a
		// probe round, and overtaking events only delays a Stalled verdict.
		t.topo.RLock()
		gid := n.gid
		t.topo.RUnlock()
		if buf, ok := fab.encodeFrame(wire.KindData, int32(gid), wireData{From: env.from, To: gid, FromG: -1, Class: fault.RankLink, Msg: wr}); ok {
			fab.route(int32(gid), buf, false)
		}
		return nil
	}
	// Global governor backpressure first (byte-denominated, whole-tree),
	// then the per-leaf frame window — two instances of the same credit
	// mechanism at different granularities (see govern.go).
	if !t.gov.admitIntake(n.dead, t.quit) {
		return ErrStopped
	}
	select {
	case fab.win[n.index] <- struct{}{}:
	case <-n.dead:
		return ErrNodeDown
	case <-t.quit:
		return ErrStopped
	}
	// Resolve the leaf's gid and record the pending under the topology
	// lock: a supervised respawn swapping the gid concurrently would
	// otherwise leave this frame pinned to a retired link the swap's
	// migration never saw.
	t.topo.RLock()
	key := linkKey{from: -1, to: n.gid, class: fault.RankLink}
	fenv := t.transport.wrapRemote(key, env.from, wr)
	t.topo.RUnlock()
	fab.sendData(fenv)
	return nil
}

// releaseWindow frees n slots of a leaf's rank-event window after its
// frames were acknowledged (or abandoned with the link). The window is
// keyed by first-layer index, which survives gid swaps.
func (fab *netFabric) releaseWindow(leafGid, n int) {
	fab.releaseWindowIdx(fab.leafIndex(leafGid), n)
}

func (fab *netFabric) releaseWindowIdx(idx, n int) {
	if fab.win == nil || idx < 0 || idx >= len(fab.win) {
		return
	}
	w := fab.win[idx]
	for i := 0; i < n; i++ {
		select {
		case <-w:
		default:
			return
		}
	}
}
