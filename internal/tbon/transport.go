package tbon

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/fault"
)

// This file is the TBON's reliable link layer, active when a fault plan is
// configured (and retransmission not disabled). Tool messages travel in
// sequence-numbered frames per directed link; receivers deduplicate and
// resequence, restoring the exactly-once FIFO delivery the protocol layers
// require even when link pumps drop, duplicate or reorder. Senders keep
// unacknowledged frames in a per-link outbox; a scanner goroutine resends
// overdue frames with exponential backoff up to a bounded attempt count.
// Acknowledgements are cumulative and — since all nodes share one process —
// delivered by directly trimming the sender's outbox rather than by
// ack messages on the (also faulty) reverse link.
//
// When the supervisor reattaches a crashed node's children to the
// grandparent, redirect migrates each child's unacknowledged upward frames
// onto the new link in sequence order, so nothing buffered inside the dead
// node's queues is lost (at-least-once; receiver-side protocol idempotence
// at the root absorbs re-executions the dead node already forwarded).

// linkKey identifies a directed tool link: sender and receiver global node
// ids plus the link class (a node pair can be connected by links of
// different classes, e.g. the root's self up-link and its down-links).
type linkKey struct {
	from, to int
	class    fault.Class
}

// frame is a sequence-numbered tool message on one directed link.
type frame struct {
	key linkKey
	seq uint64
	msg any
}

// pending is an unacknowledged frame in a sender outbox.
type pending struct {
	env      envelope // the framed envelope as originally sent
	q        *queue   // destination queue
	attempts int
	due      time.Time // next retransmission time
}

// linkOut is the sender-side state of one directed link.
type linkOut struct {
	nextSeq uint64
	pend    map[uint64]*pending
}

// reseq is the receiver-side state of one directed link: the next expected
// sequence number and the out-of-order buffer.
type reseq struct {
	expected uint64
	buf      map[uint64]envelope
}

// rseq returns the resequencer of one incoming link, creating it on first
// use.
func rseq(m map[linkKey]*reseq, key linkKey) *reseq {
	rs := m[key]
	if rs == nil {
		rs = &reseq{buf: make(map[uint64]envelope)}
		m[key] = rs
	}
	return rs
}

// accept is the receiver half of the reliable layer, shared by node links
// and the worker's rank links: duplicates and already-delivered frames are
// dropped, gaps are buffered, and the in-order prefix that frame seq
// completes is emitted. It returns the cumulative acknowledgement to issue;
// ok is false when there is none (a buffered duplicate, or nothing
// delivered yet). A stale duplicate — e.g. a retransmission that crossed its
// ack — is re-acknowledged so the sender outbox drains.
func (rs *reseq) accept(seq uint64, env envelope, emit func(envelope)) (upTo uint64, ok bool) {
	if seq < rs.expected {
		return rs.expected - 1, true
	}
	if _, dup := rs.buf[seq]; dup {
		return 0, false
	}
	rs.buf[seq] = env
	for {
		e, found := rs.buf[rs.expected]
		if !found {
			break
		}
		delete(rs.buf, rs.expected)
		rs.expected++
		emit(e)
	}
	return rs.expected - 1, rs.expected > 0
}

type transport struct {
	t *Tree

	mu       sync.Mutex // guards links and deadGids; lock order: Tree.topo before mu
	links    map[linkKey]*linkOut
	deadGids map[int]bool // spliced-out receivers: no new pendings toward them

	retryBase   time.Duration
	retryCap    time.Duration
	maxAttempts int

	retransmits atomic.Uint64
	abandoned   atomic.Uint64
}

// frames moves the tree's unacknowledged-frame count by n (the high half of
// its outstanding-work word; bare transports of the test harnesses have no
// tree).
func (tr *transport) frames(n int) {
	if tr.t == nil {
		return
	}
	if n > 0 {
		tr.t.admit(int64(n) * frameUnit)
	} else {
		tr.t.retire(int64(-n) * frameUnit)
	}
}

func newTransport(t *Tree, plan *fault.Plan) *transport {
	if plan == nil {
		plan = &fault.Plan{}
	}
	tr := &transport{
		t:           t,
		links:       make(map[linkKey]*linkOut),
		deadGids:    make(map[int]bool),
		retryBase:   plan.RetryBaseInterval(),
		retryCap:    plan.RetryCapInterval(),
		maxAttempts: plan.RetryAttempts(),
	}
	if t.cfg.Net != nil {
		// Real-network retransmission: TCP itself recovers in-flight loss,
		// so frame-level resends only matter across reconnects and proxy
		// drops. Wider intervals avoid spurious duplicates when an ack
		// round-trip is merely slow.
		if plan.RetryBase == 0 {
			tr.retryBase = 20 * time.Millisecond
		}
		if plan.RetryCap == 0 {
			tr.retryCap = 250 * time.Millisecond
		}
	}
	return tr
}

// link returns the sender-side state of one directed link, creating it on
// first use. The caller holds tr.mu.
func (tr *transport) link(key linkKey) *linkOut {
	lo := tr.links[key]
	if lo == nil {
		lo = &linkOut{pend: make(map[uint64]*pending)}
		tr.links[key] = lo
	}
	return lo
}

// inbox is the queue on which n receives links of the given class.
func (n *Node) inbox(class fault.Class) *queue {
	switch class {
	case fault.UpLink:
		return n.fromBelow
	case fault.DownLink:
		return n.fromAbove
	default:
		return n.fromPeer
	}
}

// wrap assigns the next sequence number on the (from → to, class) link,
// records the frame as pending, and returns the framed envelope. Callers
// hold Tree.topo, which makes the parent resolution they just did and the
// outbox entry atomic with respect to crash redirection.
func (tr *transport) wrap(from, to *Node, class fault.Class, env envelope) envelope {
	key := linkKey{from: from.gid, to: to.gid, class: class}
	tr.mu.Lock()
	lo := tr.link(key)
	seq := lo.nextSeq
	lo.nextSeq++
	fenv := envelope{from: env.from, msg: frame{key: key, seq: seq, msg: env.msg}}
	// Remote targets keep q nil: the scanner resends their frames through
	// the TCP fabric instead of a local queue.
	var q *queue
	if to.local {
		q = to.inbox(class)
	}
	if q != nil || !tr.deadGids[key.to] {
		// Frames to a spliced-out remote receiver are not worth tracking:
		// no ack will ever come and retransmitting them only wedges the
		// in-flight accounting that gates detection.
		lo.pend[seq] = &pending{env: fenv, q: q, due: time.Now().Add(tr.retryBase)}
		tr.frames(1)
	}
	tr.mu.Unlock()
	return fenv
}

// wrapRemote sequences one payload on a purely remote link (no sender
// Node — used for the coordinator's rank-event links) and records it
// pending like wrap does.
func (tr *transport) wrapRemote(key linkKey, from int, msg any) envelope {
	tr.mu.Lock()
	lo := tr.link(key)
	seq := lo.nextSeq
	lo.nextSeq++
	fenv := envelope{from: from, msg: frame{key: key, seq: seq, msg: msg}}
	lo.pend[seq] = &pending{env: fenv, due: time.Now().Add(tr.retryBase)}
	tr.frames(1)
	tr.mu.Unlock()
	return fenv
}

// ack routes one cumulative acknowledgement: when the link's sender lives
// in this process the outbox is trimmed directly (the historical in-process
// path); otherwise the ack crosses the wire to the owning process. Trimmed
// rank-link frames release their leaf's in-flight window.
func (tr *transport) ack(key linkKey, upTo uint64) {
	var fab *netFabric
	if tr.t != nil { // bare transports (fuzz harness) have no tree
		fab = tr.t.net
	}
	if fab != nil && !fab.ownsGid(key.from) {
		fab.sendAck(key, upTo)
		return
	}
	removed := tr.trim(key, upTo)
	if fab != nil && key.class == fault.RankLink && removed > 0 {
		fab.releaseWindow(key.to, removed)
	}
}

// trim discards acknowledged frames (seq ≤ upTo) from one link's outbox,
// returning how many it removed.
func (tr *transport) trim(key linkKey, upTo uint64) int {
	removed := 0
	tr.mu.Lock()
	if lo := tr.links[key]; lo != nil {
		for s := range lo.pend {
			if s <= upTo {
				delete(lo.pend, s)
				removed++
			}
		}
	}
	tr.frames(-removed)
	tr.mu.Unlock()
	return removed
}

// migrate moves link oldKey's unacknowledged frames onto newKey, the one
// routine behind every topology change: frames are taken in sequence order,
// re-framed with newKey's next sequence numbers and made due immediately, so
// the new link delivers them in the original order. Frames below mark are
// dropped and counted instead. q, when non-nil, becomes the frames'
// destination queue (the receiver is a different Node); nil keeps each
// frame's own (same or remote receiver). The old link is deleted. The caller
// holds tr.mu, and Tree.topo with the topology already swapped, so no new
// frame can target the old link concurrently.
func (tr *transport) migrate(oldKey, newKey linkKey, q *queue, mark int64) (dropped int) {
	old := tr.links[oldKey]
	delete(tr.links, oldKey)
	if old == nil || len(old.pend) == 0 {
		return 0
	}
	seqs := make([]uint64, 0, len(old.pend))
	for s := range old.pend {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	now := time.Now()
	var nl *linkOut // created only if a frame survives the watermark
	for _, s := range seqs {
		if int64(s) < mark {
			dropped++
			continue
		}
		if nl == nil {
			nl = tr.link(newKey)
		}
		p := old.pend[s]
		dst := p.q
		if q != nil {
			dst = q
		}
		seq := nl.nextSeq
		nl.nextSeq++
		nl.pend[seq] = &pending{
			env: envelope{from: p.env.from, msg: frame{key: newKey, seq: seq, msg: p.env.msg.(frame).msg}},
			q:   dst,
			due: now,
		}
	}
	tr.frames(-dropped)
	return dropped
}

// redirect migrates a child's unacknowledged upward frames from the dead
// old parent's link onto the new parent's link. The caller has already
// swapped the child's parent pointer.
func (tr *transport) redirect(child, oldParent, newParent *Node) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.migrate(linkKey{from: child.gid, to: oldParent.gid, class: fault.UpLink},
		linkKey{from: child.gid, to: newParent.gid, class: fault.UpLink}, newParent.fromBelow, 0)
}

// migrateTo moves every unacknowledged frame addressed to or sent by a
// dead first-layer node onto the corresponding link of its replacement
// (fresh gid ⇒ fresh links).
//
// Inbound frames (to == old): acknowledgements are synchronous with
// dispatch, so the pending set is exactly what the dead incarnation never
// processed — the replacement receives each exactly once, on its own
// queues. Outbound frames (from == old): copies may already sit in live
// receivers' pump queues, so receivers can see a frame on both the old and
// the new link (at-least-once); both links deliver in the original order,
// and the protocol layers deduplicate.
func (tr *transport) migrateTo(old, neu *Node) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for key := range tr.links {
		newKey, q := key, (*queue)(nil)
		if key.from == old.gid {
			newKey.from = neu.gid
		}
		if key.to == old.gid {
			newKey.to = neu.gid
			q = neu.inbox(key.class)
		}
		if newKey != key {
			tr.migrate(key, newKey, q, 0)
		}
	}
}

// cutOver migrates a retired first-layer gid's outbox state onto its
// respawn successor. For each link into the old gid, markFor supplies the
// shipment journal's cut watermark: pendings below it are journal-covered
// — the recovery shipment replays them, so resending would deliver
// duplicates of non-idempotent inputs (rank events) — and are dropped;
// pendings at or above it are stragglers the journal never saw and
// migrate onto the fresh link. Returns the count of dropped rank-link
// pendings so the caller can release the leaf's in-flight window.
//
// Surviving workers (which cannot know the coordinator's watermarks) call
// this with a zero markFor: every unacked pending migrates, giving
// at-least-once with preserved order for peer traffic across the
// incarnation boundary — the same contract migrateTo documents, absorbed
// by the protocol layers' dedup.
func (tr *transport) cutOver(old, neu int, markFor func(linkKey) int64) (droppedRank int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for key := range tr.links {
		if key.to != old {
			continue
		}
		newKey := key
		newKey.to = neu
		dropped := tr.migrate(key, newKey, nil, markFor(key))
		if key.class == fault.RankLink {
			droppedRank += dropped
		}
	}
	return droppedRank
}

// dropLinksTo discards outbox state for links into a dead node (frames
// that can never be acknowledged and need no retransmission) and marks the
// receiver dead so no later send re-creates pending state toward it.
func (tr *transport) dropLinksTo(gid int) {
	tr.mu.Lock()
	for key, lo := range tr.links {
		if key.to == gid {
			tr.frames(-len(lo.pend))
			delete(tr.links, key)
		}
	}
	tr.deadGids[gid] = true
	tr.mu.Unlock()
}

// run is the retransmission scanner: it periodically resends overdue
// unacknowledged frames with exponential backoff, abandoning a frame after
// maxAttempts resends.
func (tr *transport) run() {
	defer tr.t.wg.Done()
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-tr.t.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		fab := tr.t.net
		var resend []*pending
		tr.mu.Lock()
		for key, lo := range tr.links {
			for s, p := range lo.pend {
				if p.due.After(now) {
					continue
				}
				maxAttempts := tr.maxAttempts
				if p.q == nil {
					// Remote link. While the owning connection is down the
					// frame parks without consuming attempts: reconnection
					// resumes retransmission, and permanent loss is decided
					// by the degradation budget (which drops the link), not
					// by an attempt counter tuned for in-process faults.
					if fab == nil || !fab.connUp(key.to) {
						p.due = now.Add(tr.retryCap)
						continue
					}
					maxAttempts = remoteMaxAttempts
				}
				if p.attempts >= maxAttempts {
					delete(lo.pend, s)
					tr.frames(-1)
					tr.abandoned.Add(1)
					if key.class == fault.RankLink { // rank links are remote-only
						fab.releaseWindow(key.to, 1)
					}
					continue
				}
				p.attempts++
				backoff := tr.retryBase << uint(p.attempts)
				if backoff > tr.retryCap {
					backoff = tr.retryCap
				}
				p.due = now.Add(backoff)
				resend = append(resend, p)
			}
		}
		tr.mu.Unlock()
		for _, p := range resend {
			tr.retransmits.Add(1)
			if p.q == nil {
				fab.sendData(p.env)
			} else {
				p.q.send(p.env, tr.t.quit)
			}
		}
	}
}

// ackTo records or issues one cumulative acknowledgement. With batching,
// the node accumulates the per-link maximum and flushAcks trims each
// sender outbox once per delivery cycle instead of once per frame; without
// (ackPend nil — batching off, or a bare Node in tests), the ack happens
// immediately, the historical behavior.
func (n *Node) ackTo(tr *transport, key linkKey, upTo uint64) {
	if n.ackPend == nil {
		tr.ack(key, upTo)
		return
	}
	cur, ok := n.ackPend[key]
	if !ok {
		n.ackKeys = append(n.ackKeys, key)
	}
	if !ok || upTo > cur {
		n.ackPend[key] = upTo
	}
}

// flushAcks issues the delivery cycle's accumulated acknowledgements, one
// outbox trim per link (the "one seq range per slab" half of batching).
// Deferring acks within a cycle is safe: cycles are far shorter than the
// retransmission base interval, and a late ack at worst re-trims.
func (n *Node) flushAcks() {
	if len(n.ackKeys) == 0 {
		return
	}
	tr := n.tree.transport
	for _, k := range n.ackKeys {
		tr.ack(k, n.ackPend[k])
		delete(n.ackPend, k)
	}
	n.ackKeys = n.ackKeys[:0]
}

// deliver dispatches one received envelope. Reliable frames pass through
// their link's resequencer (reseq.accept), followed by a cumulative
// acknowledgement. Unframed messages dispatch directly.
func (n *Node) deliver(env envelope, dispatch func(envelope)) {
	f, ok := env.msg.(frame)
	if !ok {
		dispatch(env)
		return
	}
	// Frames exist only with a transport: wrap or the TCP fabric made them.
	if upTo, ok := rseq(n.rsq, f.key).accept(f.seq, envelope{from: env.from, msg: f.msg}, dispatch); ok {
		n.ackTo(n.tree.transport, f.key, upTo)
	}
}
