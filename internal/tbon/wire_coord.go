package tbon

// Coordinator half of the TCP fabric (see wire.go): accepts workers,
// enforces incarnation fencing on the handshake, relays worker ↔ worker
// frames on the header alone, monitors liveness, and — past the
// degradation budget — splices unreachable workers out through the same
// OnNodeDown path an in-process crash takes.

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"dwst/internal/fault"
	"dwst/internal/supervise"
	"dwst/internal/wire"
)

func (fab *netFabric) acceptLoop() {
	defer fab.wg.Done()
	for {
		conn, err := fab.ln.Accept()
		if err != nil {
			select {
			case <-fab.closed:
				return
			case <-time.After(10 * time.Millisecond):
				continue // transient accept error
			}
		}
		fab.wg.Add(1)
		go fab.handshake(conn)
	}
}

// handshake admits or fences one dialing worker, then becomes its reader.
func (fab *netFabric) handshake(conn net.Conn) {
	defer fab.wg.Done()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	f, err := wire.ReadFrame(br)
	if err != nil || f.Kind != wire.KindHello {
		conn.Close()
		return
	}
	body, err := decodePayload(f.Payload)
	hello, ok := body.(wireHello)
	if err != nil || !ok {
		fab.codecErrors.Add(1)
		conn.Close()
		return
	}
	if hello.Worker < 0 || hello.Worker >= len(fab.slots) {
		fab.reject(conn, fmt.Sprintf("unknown worker id %d (want 0..%d)", hello.Worker, len(fab.slots)-1))
		return
	}
	sl := fab.slots[hello.Worker]
	if hello.Resume != "" {
		// A supervised respawn: token-gated re-admission with journal replay
		// instead of the fresh-claimant fence.
		fab.resumeHandshake(sl, conn, br, hello.Resume)
		return
	}
	sl.mu.Lock()
	switch {
	case sl.degraded:
		sl.mu.Unlock()
		fab.reject(conn, "worker slot degraded: budget exceeded, nodes spliced out")
		return
	case hello.Incarnation == 0 && sl.inc != 0:
		// A fresh process claiming an assigned slot: its predecessor's
		// protocol state died with it, so admitting it would silently
		// corrupt the run. Fence it; the budget decides the slot's fate.
		sl.mu.Unlock()
		fab.reject(conn, "worker slot already assigned: fresh process fenced (in-memory state lost)")
		return
	case hello.Incarnation != sl.inc:
		sl.mu.Unlock()
		fab.reject(conn, fmt.Sprintf("stale incarnation %d fenced", hello.Incarnation))
		return
	}
	if hello.Incarnation == 0 {
		sl.inc++ // the first claim: hand out the slot's first incarnation
	}
	inc := sl.inc
	sl.mu.Unlock()
	// Welcome first, attach second: once attached, the slot's writer may
	// flush queued data at once (the run starts when the last slot is up,
	// and peers relay through here), and a worker that reads anything but
	// a welcome gives the handshake up — which a first claimant, still at
	// incarnation 0, cannot retry without being fenced as a fresh process.
	if err := fab.writeSync(conn, wire.KindWelcome, fab.welcome(inc)); err != nil {
		conn.Close()
		return
	}
	fab.admit(sl, conn, br, nil)
}

// admit is the one admission path — first hello, reconnect and supervised
// respawn alike — run once the welcome (and, for a respawn, the journal
// shipment) is on the wire. It attaches the slot's send queue to conn,
// stamps the budget clock (only admission is progress: a fenced claimant
// must not postpone a dead slot's splice-out), counts a reconnect, catches
// the worker up on splice-outs it missed, and becomes the slot's reader.
// recovered lists the leaves a supervised respawn re-admitted (nil for a
// plain hello). A slot the monitor spliced out meanwhile stays out:
// admitting it would resurrect fenced state.
func (fab *netFabric) admit(sl *workerSlot, conn net.Conn, br *bufio.Reader, recovered []int) {
	sl.mu.Lock()
	if sl.degraded {
		sl.mu.Unlock()
		conn.Close()
		return
	}
	reconnect := sl.everUp
	sl.everUp = true
	sl.lastProgress = time.Now()
	old := sl.sq.attach(conn)
	sl.mu.Unlock()
	if old != nil {
		old.Close() // half-open predecessor; the new connection wins
	}
	if reconnect {
		fab.reconnects.Add(1)
	}
	// Whatever the worker holds is unknown until its first stats report.
	fab.markBusy(sl)
	if recovered != nil {
		fab.respawns.Add(1)
	}
	degraded := func(sl *workerSlot) bool {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.degraded
	}
	if gids := fab.leafGids(degraded); len(gids) > 0 {
		// Catch a late (re)connector up on splice-outs it missed.
		if buf, ok := fab.encodeFrame(wire.KindDown, -1, wireDown{Gids: gids}); ok {
			sl.sq.push(buf)
		}
	}
	if cb := fab.t.cfg.OnNodeRecovered; cb != nil && recovered != nil {
		leaves := fab.t.FirstLayer()
		for _, idx := range recovered {
			cb(leaves[idx])
		}
	}
	fab.checkReady()
	fab.slotReader(sl, conn, br)
}

func (fab *netFabric) reject(conn net.Conn, reason string) {
	fab.writeSync(conn, wire.KindWelcome, wireWelcome{OK: false, Reason: reason})
	conn.Close()
}

// welcome carries the full tree configuration, so a worker process needs
// nothing but the coordinator address and its worker id.
func (fab *netFabric) welcome(inc uint64) wireWelcome {
	cfg := &fab.t.cfg
	return wireWelcome{
		OK:          true,
		Incarnation: inc,
		Leaves:      cfg.Leaves,
		FanIn:       cfg.FanIn,
		EventBuf:    cfg.EventBuf,
		Workers:     fab.nc.Workers,
		KeepAlive:   fab.nc.keepAlive(),
		Budget:      fab.nc.budget(),
		MemBudget:   cfg.MemBudget,
		LeafGids:    fab.leafGids(nil),
	}
}

func (fab *netFabric) checkReady() {
	for _, sl := range fab.slots {
		sl.mu.Lock()
		up := sl.everUp
		sl.mu.Unlock()
		if !up {
			return
		}
	}
	fab.readyOnce.Do(func() { close(fab.ready) })
}

// slotConnFailed marks a worker's connection down (if still current),
// stamps the outage start for the budget clock, and notifies the process
// supervisor (asynchronously — this runs on reader/writer goroutines the
// callback must not block).
func (fab *netFabric) slotConnFailed(sl *workerSlot, conn net.Conn) {
	if sl.sq.detach(conn) {
		// A worker that dropped off may hold work it never reported — or, if
		// its process died, state a respawn has yet to replay: busy until a
		// (0, 0) report on a new connection, or until it is spliced out.
		fab.markBusy(sl)
		sl.mu.Lock()
		sl.lastDown = time.Now()
		sl.mu.Unlock()
	}
	conn.Close()
}

// slotReader drains one worker connection until it dies.
func (fab *netFabric) slotReader(sl *workerSlot, conn net.Conn, br *bufio.Reader) {
	readTO := fab.nc.readTimeout()
	for {
		conn.SetReadDeadline(time.Now().Add(readTO))
		f, err := wire.ReadFrame(br)
		if err != nil {
			fab.slotConnFailed(sl, conn)
			return
		}
		fab.bytesIn.Add(uint64(wire.HeaderLen + len(f.Payload)))
		// A worker is idle from a (0, 0) report until the next frame read
		// from it or written to it (route). FIFO makes the rule exact: the
		// worker acknowledges before it retires a cycle and reports after,
		// so the ack of the coordinator's last frame — read as a frame,
		// marking it busy — precedes the fresh report.
		switch f.Kind {
		case wire.KindData, wire.KindAck:
			fab.markBusy(sl)
			if fab.leafIndex(int(f.Dst)) >= 0 {
				// Hub relay: worker → worker traffic forwards on the
				// header alone (plus a journal capture with recovery on).
				// Frames to retired gids fall through and are dropped by
				// route via deliverData/deliverAck's gid lookups.
				fab.forward(f)
				continue
			}
			if f.Kind == wire.KindData {
				fab.deliverData(f.Payload)
			} else {
				fab.deliverAck(f.Payload)
			}
		case wire.KindStats:
			body, err := decodePayload(f.Payload)
			if st, ok := body.(wireStats); err == nil && ok && st.Work == 0 && st.InFlight == 0 {
				fab.markIdle(sl)
			} else {
				fab.markBusy(sl)
				if !ok || err != nil {
					fab.codecErrors.Add(1)
				}
			}
		case wire.KindFinal:
			body, err := decodePayload(f.Payload)
			if fin, ok := body.(WorkerFinal); err == nil && ok {
				sl.mu.Lock()
				if sl.final == nil {
					sl.final = &fin
					close(sl.finalCh)
				}
				sl.mu.Unlock()
			} else {
				fab.codecErrors.Add(1)
			}
		case wire.KindRecover:
			body, err := decodePayload(f.Payload)
			if d, ok := body.(wireRecoverDone); err == nil && ok {
				fab.replayNanos.Add(d.Nanos)
				sl.mu.Lock()
				sl.lastProgress = time.Now()
				sl.mu.Unlock()
			} else {
				fab.codecErrors.Add(1)
			}
		case wire.KindPing:
		default:
			fab.codecErrors.Add(1)
		}
	}
}

// forward re-encodes a relayed frame's header (payload untouched) and
// routes it to the destination worker. With recovery on, relayed data
// frames are journaled first — the one place the relay path pays a payload
// decode, to learn the (origin link, seq) the journal keys on.
func (fab *netFabric) forward(f wire.Frame) {
	if f.Kind == wire.KindData && fab.journals != nil {
		fab.captureRelay(f)
	}
	buf, err := wire.Append(make([]byte, 0, wire.HeaderLen+len(f.Payload)), f)
	if err != nil {
		fab.codecErrors.Add(1)
		return
	}
	fab.route(f.Dst, buf)
}

// captureRelay journals one relayed data frame destined to a first-layer
// leaf. The payload aliases the connection read buffer, so the journaled
// copy is explicit.
func (fab *netFabric) captureRelay(f wire.Frame) {
	idx := fab.leafIndex(int(f.Dst))
	if idx < 0 {
		return
	}
	body, err := decodePayload(f.Payload)
	wd, ok := body.(wireData)
	if err != nil || !ok {
		fab.codecErrors.Add(1)
		return
	}
	p := make([]byte, len(f.Payload))
	copy(p, f.Payload)
	fab.journals[idx].Record(supervise.LinkID{From: wd.FromG, Class: int(wd.Class), Dst: wd.To}, int64(wd.Seq), p)
}

// deliverData decodes one frame addressed to this process and hands it to
// the local node it names (see enqueue).
func (fab *netFabric) deliverData(payload []byte) {
	body, err := decodePayload(payload)
	wd, ok := body.(wireData)
	if err != nil || !ok {
		fab.codecErrors.Add(1)
		return
	}
	tp := fab.t.shape.Load()
	n := tp.gidIndex[wd.To]
	if n == nil {
		if wd.To < 0 || wd.To >= tp.nextGid {
			fab.codecErrors.Add(1)
		}
		return // in-flight frame to a retired incarnation: superseded
	}
	if !n.local {
		fab.codecErrors.Add(1)
		return
	}
	fab.enqueue(n, wd, true)
}

// enqueue hands one wire frame to local node n: a rank event to its rank
// inbox, never held (the coordinator's per-leaf frame window bounds it),
// a tool message to the inbox of its link class. Live frames
// (deliverData) and replayed journal entries (replayOne) share this path
// and differ only in the resequencer: a live rank frame passes the worker's
// rank-link one here, on the serial reader (so rankRsq needs no lock), and
// a live tool frame stays framed for the node's own. Replayed entries are
// unframed by design: they consume no sequence or ack state, so the fresh
// links' sequence spaces stay untouched for live traffic.
func (fab *netFabric) enqueue(n *Node, wd wireData, live bool) {
	key := linkKey{from: wd.FromG, to: wd.To, class: wd.Class}
	env := envelope{from: wd.From, msg: wd.Msg}
	if wd.Class != fault.RankLink {
		if live {
			env.msg = frame{key: key, seq: wd.Seq, msg: wd.Msg}
		}
		if q := n.inbox(wd.Class); q != nil {
			q.send(env, fab.t.quit)
		}
		return
	}
	if n.rank == nil {
		fab.codecErrors.Add(1)
		return
	}
	push := func(e envelope) {
		wr, ok := e.msg.(wireRank)
		if !ok {
			fab.codecErrors.Add(1)
			return
		}
		n.rank.put(fab.t, n, &rankEnvelope{from: wr.Rank, ev: wr.Ev}, false)
	}
	if !live {
		push(env)
		return
	}
	if upTo, ok := rseq(&fab.rankRsq, key).accept(wd.Seq, env, push); ok {
		fab.sendAck(key, upTo)
	}
}

// deliverAck trims (or forwards, via transport.ack routing) one cumulative
// acknowledgement.
func (fab *netFabric) deliverAck(payload []byte) {
	body, err := decodePayload(payload)
	wa, ok := body.(wireAck)
	if err != nil || !ok {
		fab.codecErrors.Add(1)
		return
	}
	fab.t.transport.ack(linkKey{from: wa.FromG, to: wa.To, class: wa.Class}, wa.UpTo)
}

// monitor drives the coordinator's keepalive pings and the degradation
// budget clock.
func (fab *netFabric) monitor() {
	defer fab.wg.Done()
	ka := fab.nc.keepAlive() / 2
	if ka < time.Millisecond {
		ka = time.Millisecond
	}
	budget := fab.nc.budget()
	ping, _ := fab.encodeFrame(wire.KindPing, -1, nil)
	tick := time.NewTicker(ka)
	defer tick.Stop()
	for {
		select {
		case <-fab.closed:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, sl := range fab.slots {
			if sl.sq.isUp() {
				sl.sq.push(ping)
				continue
			}
			sl.mu.Lock()
			// The budget counts from the last observed sign of life, not
			// from first disconnect: a token mint, resume hello or shipped
			// recovery chunk resets the clock, so a slow-but-alive respawn
			// is not spliced out mid-recovery.
			ref := sl.lastDown
			if sl.lastProgress.After(ref) {
				ref = sl.lastProgress
			}
			expired := sl.everUp && !sl.degraded && now.Sub(ref) > budget
			sl.mu.Unlock()
			if expired {
				fab.degrade(sl)
			}
		}
	}
}

// degrade splices an unreachable worker's nodes out of the tree: each of
// its first-layer nodes is declared dead, its outboxes dropped, and the
// tool notified via OnNodeDown — the same degraded-report path an
// in-process crash without recovery takes.
func (fab *netFabric) degrade(sl *workerSlot) {
	sl.mu.Lock()
	if sl.degraded {
		sl.mu.Unlock()
		return
	}
	sl.degraded = true
	sl.mu.Unlock()
	// A spliced-out worker holds no work the tool waits for.
	fab.markIdle(sl)
	t := fab.t
	leaves := t.FirstLayer()
	var gids []int
	for _, idx := range fab.leavesOf(sl.w) {
		n := leaves[idx]
		gids = append(gids, n.gid)
		n.Kill()
		t.transport.dropLinksTo(n.gid) // the TCP fabric implies the reliable layer
		if t.cfg.OnNodeDown != nil {
			t.cfg.OnNodeDown(n)
		}
	}
	// Surviving workers keep retransmitting toward the dead leaves (remote
	// links have an effectively unbounded attempt budget) unless told the
	// receivers are gone; that pinned pending state would wedge the
	// in-flight gate on detection.
	if buf, ok := fab.encodeFrame(wire.KindDown, -1, wireDown{Gids: gids}); ok {
		for _, other := range fab.slots {
			if other != sl {
				other.sq.push(buf)
			}
		}
	}
}

// leafGids lists the current first-layer gids of the slots keep admits
// (every slot when keep is nil): for the welcome, and — the degraded ones —
// for late (re)connectors, so they too stop retransmitting into the void.
func (fab *netFabric) leafGids(keep func(*workerSlot) bool) []int {
	var gids []int
	for i, n := range fab.t.FirstLayer() {
		if keep == nil || keep(fab.slots[ownerOfLeaf(i, fab.width0, len(fab.slots))]) {
			gids = append(gids, n.gid)
		}
	}
	return gids
}

// markBusy makes worker slot sl one unit of the coordinator's outstanding
// work, until markIdle. The unit is admitted before the flag is set, so a
// concurrent markIdle never retires a unit that is not there yet.
func (fab *netFabric) markBusy(sl *workerSlot) {
	if sl.busy.Load() {
		return
	}
	fab.t.admit(1)
	if !sl.busy.CompareAndSwap(false, true) {
		fab.t.retire(1)
	}
}

// markIdle ends sl's unit of outstanding work: the worker reported (0, 0),
// or its slot was spliced out.
func (fab *netFabric) markIdle(sl *workerSlot) {
	if sl.busy.CompareAndSwap(true, false) {
		fab.t.retire(1)
	}
}

// shutdownWorkers asks every reachable worker to stop and collects their
// final reports, bounded by the budget.
func (fab *netFabric) shutdownWorkers() {
	buf, ok := fab.encodeFrame(wire.KindShutdown, -1, nil)
	if !ok {
		return
	}
	var await []*workerSlot
	for _, sl := range fab.slots {
		if sl.sq.isUp() {
			sl.sq.push(buf)
			await = append(await, sl)
		}
	}
	deadline := time.Now().Add(fab.nc.budget())
	for _, sl := range await {
		select {
		case <-sl.finalCh:
		case <-time.After(time.Until(deadline)):
			return
		}
	}
}
