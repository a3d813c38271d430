package tbon

import (
	"sync"

	"dwst/internal/event"
)

// This file is the rank → first-layer intake: each first-layer slot has one
// rankInbox, a FIFO of application events held by value. Ranks append
// under the inbox's mutex and raise the hosting node's wake token on the
// empty → non-empty edge; the node takes up to maxEventDrain envelopes per
// wake in place, without copying them out, and drops them at the end of
// the delivery cycle that dispatched them (settle).
//
// What the intake bounds is the trace window, not a number of slots. A
// rank's next call (its Enter event) waits — the hold — while the slot
// holds bound = EventBuf × hosted ranks operations: envelopes not yet
// settled plus the records its tracker keeps (Holder, published at every
// cycle end). The slot's cycle end wakes its held ranks once the count fell
// to the low water mark: one wake per drained batch, not per retired
// operation. The hold lasts only while the tool still works on the slot;
// held ranks are released, and may overrun the bound until a cycle end
// finds the count under it, in two cases:
//
//   - an idle edge of Tree.work. A held rank has not admitted its event, so
//     held ranks never keep the tree busy;
//   - the slot retired none of its operations while the whole tree ended
//     staleAfter delivery cycles per first-layer node. This covers a
//     tracker that stopped working and one that is stuck but busy — a
//     potential deadlock, or a slot that waits on held ranks while another
//     rank spins on Iprobe and keeps the tree from going idle. A single
//     cycle that retires nothing is no sign of either: on the streaming
//     workloads a slot waiting on its peers' handshakes ends hundreds of
//     such cycles per run.
//
// Status, CommInfo, Done and RankDown events are never held, and neither is
// the TCP worker's intake: there the coordinator's per-leaf frame window
// (fab.win) is the bound.

// DefaultEventBuf is the operations a first-layer node may hold per hosted
// rank when Config.EventBuf is 0: 512 per leaf at fan-in 4. Of 64, 128
// and 256 it is the smallest that kept spec_mix as fast as 512 did in
// paired benchmark runs (EXPERIMENTS.md, "Quarter window").
const DefaultEventBuf = 128

// rankChunkLen is the envelopes one intake chunk stores. A node takes at
// most one chunk's worth per wake.
const rankChunkLen = maxEventDrain

// rankChunk is a fixed block of the inbox's FIFO. Chunks come from
// rankChunks and go back once drained, so the intake's storage is recycled
// across slots and runs instead of grown per inbox.
type rankChunk struct {
	envs [rankChunkLen]rankEnvelope
	next *rankChunk
}

var rankChunks = sync.Pool{New: func() any { return new(rankChunk) }}

// rankInbox is one first-layer slot's intake; it outlives the slot's node
// incarnations (a replacement adopts it, see respawn).
type rankInbox struct {
	mu         sync.Mutex
	head, tail *rankChunk // nil when empty
	r, w       int        // next read in head, next write in tail
	n          int        // envelopes appended and not yet settled
	took       int        // envelopes the current cycle took from head
	sunk       bool       // the slot's node died for good: puts fail
	ready      chan struct{}

	// The hold. bound is EventBuf × hosted ranks, lo its low water mark;
	// window is the tracker's record count at the last cycle end; waiting
	// counts held ranks (on wake); overrun suspends the hold; last is
	// Tree.cycles when the slot last retired an operation or first held a
	// rank.
	bound, lo int
	window    int
	waiting   int
	overrun   bool
	last      uint64
	wake      sync.Cond
}

func (in *rankInbox) init(bound int, ready chan struct{}) {
	in.bound, in.lo, in.ready = bound, bound-bound/4, ready
	in.wake.L = &in.mu
}

// put appends env for the slot's current node n, holding it first when
// hold is set (Enter events of in-process ranks). It reports false, having
// taken nothing, when n died.
func (in *rankInbox) put(t *Tree, n *Node, env *rankEnvelope, hold bool) bool {
	in.mu.Lock()
	for hold && in.n+in.window >= in.bound && !in.overrun {
		if !in.await(t, n) {
			break
		}
	}
	if in.sunk || n.Dead() {
		in.mu.Unlock()
		return false
	}
	t.admit(1) // counted before it can be dispatched
	if in.tail == nil || in.w == rankChunkLen {
		c := rankChunks.Get().(*rankChunk)
		if in.tail == nil {
			in.head, in.r = c, 0
		} else {
			in.tail.next = c
		}
		in.tail, in.w = c, 0
	}
	in.tail.envs[in.w] = *env
	in.w++
	in.n++
	first := in.n-in.took == 1
	ready := in.ready // a respawn rebinds it under in.mu
	in.mu.Unlock()
	if first {
		signal(ready)
	}
	return true
}

// await parks a held rank (in.mu held) until a cycle end, an idle edge, a
// crash or Stop wakes it. It reports false when the rank must stop waiting
// for good: its node died or the tree stopped.
func (in *rankInbox) await(t *Tree, n *Node) bool {
	if n.Dead() {
		return false
	}
	select {
	case <-t.quit:
		return false
	default:
	}
	if in.waiting == 0 {
		in.last = t.cycles.Load() // staleness counts from the first hold
	}
	in.waiting++
	// Announce the wait before reading the work word; the retire that
	// opens an idle edge writes the word before reading holding, so one of
	// the two sees the other.
	t.holding.Add(1)
	if t.work.Load()&countsMask == 0 {
		in.overrun = true // idle already: no cycle end will come to wake us
	} else {
		in.wake.Wait()
	}
	t.holding.Add(-1)
	in.waiting--
	return true
}

// take returns up to max queued envelopes, in place in the head chunk, for
// the node goroutine to dispatch; the cycle's settle drops them. It
// re-raises the wake token when more remain.
func (in *rankInbox) take(max int) []rankEnvelope {
	in.mu.Lock()
	if in.head == nil {
		in.mu.Unlock()
		return nil
	}
	end := rankChunkLen
	if in.head == in.tail {
		end = in.w
	}
	k := min(end-in.r, max)
	s := in.head.envs[in.r : in.r+k]
	in.took = k
	more := in.n > k
	in.mu.Unlock()
	if more {
		signal(in.ready)
	}
	return s
}

// staleAfter is how many delivery cycles per first-layer node the tree may
// end while a slot with held ranks retires none of its operations.
const staleAfter = 64

// settle ends one delivery cycle of slot in: it drops the envelopes the
// cycle took, publishes the tracker's record count w, and wakes held ranks
// at the low water mark. enters counts the Enter events the cycle
// dispatched; each adds a record, so the cycle retired window + enters − w
// of them. While ranks are held anywhere, it also checks one slot, round
// robin, for staleness.
func (t *Tree) settle(in *rankInbox, w, enters int) {
	c := t.cycles.Add(1)
	in.mu.Lock()
	in.drop()
	if in.window+enters > w {
		in.last = c
	}
	in.window = w
	held := in.n + w
	if held < in.bound {
		in.overrun = false
	}
	if in.waiting > 0 && held <= in.lo {
		in.wake.Broadcast()
	}
	in.mu.Unlock()
	if t.holding.Load() > 0 {
		leaves := t.shape.Load().layers[0]
		if s := leaves[c%uint64(len(leaves))].rank; s != nil {
			s.releaseIfStale(c, staleAfter*uint64(len(leaves)))
		}
	}
}

// releaseIfStale releases the slot's held ranks, overrunning the bound,
// when it retired nothing in the tree's last after cycles.
func (in *rankInbox) releaseIfStale(c, after uint64) {
	in.mu.Lock()
	if in.waiting > 0 && c > in.last+after {
		in.overrun = true
		in.wake.Broadcast()
	}
	in.mu.Unlock()
}

// drop discards the envelopes the cycle took (in.mu held), returning
// drained chunks to rankChunks.
func (in *rankInbox) drop() {
	if in.took == 0 {
		return
	}
	c := in.head
	clear(c.envs[in.r : in.r+in.took]) // release payload references
	in.r += in.took
	in.n -= in.took
	in.took = 0
	if in.r < rankChunkLen && (c != in.tail || in.r < in.w) {
		return
	}
	in.head, in.r = c.next, 0
	if in.head == nil {
		in.tail, in.w = nil, 0
	}
	c.next = nil
	rankChunks.Put(c)
}

// release wakes the slot's held ranks, overrunning the bound (an idle
// edge) or only to re-check (a crash, Stop).
func (in *rankInbox) release(overrun bool) {
	in.mu.Lock()
	if in.waiting > 0 {
		in.overrun = in.overrun || overrun
		in.wake.Broadcast()
	}
	in.mu.Unlock()
}

// releaseHolds wakes every held rank of the tree; called on an idle edge
// and by Stop.
func (t *Tree) releaseHolds(overrun bool) {
	for _, n := range t.shape.Load().layers[0] {
		if n.rank != nil {
			n.rank.release(overrun)
		}
	}
}

// rebind hands the slot's intake to a replacement node, waking it when
// envelopes wait.
func (in *rankInbox) rebind(ready chan struct{}) {
	in.mu.Lock()
	in.ready = ready
	pending := in.n > 0
	in.mu.Unlock()
	if pending {
		signal(ready)
	}
}

// sink empties the inbox of a node that died for good and fails every
// later put; it returns how many envelopes it discarded.
func (in *rankInbox) sink() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sunk = true
	pend := in.n
	in.head, in.tail, in.r, in.w, in.n, in.took = nil, nil, 0, 0, 0, 0
	in.wake.Broadcast()
	return pend
}

// dispatchRanks dispatches one slab of the slot's rank events, counting
// the Enter events for settle.
func (n *Node) dispatchRanks() {
	max := 1
	if n.tree.cfg.Batch {
		max = maxEventDrain
	}
	slab := n.rank.take(max)
	for i := range slab {
		env := &slab[i]
		n.taken++
		if env.ev.Type == event.Enter {
			n.enters++
		}
		if n.rankHandler != nil {
			n.rankHandler.FromRankEvent(env.from, env.ev)
			continue
		}
		// Config.Batch off, or a handler without the typed extension: box at
		// delivery, the historical per-event shape.
		n.handler.FromRank(env.from, env.ev)
	}
}
