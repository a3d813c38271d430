package tbon

// Supervised respawn of TCP worker processes: the coordinator-side journal
// cut + gid swap + shipment that re-admits a respawned mustnode under a new
// incarnation, and the worker-side replay + link migration. The protocol:
//
//  1. The process supervisor (cmd/mustrun) sees the worker process die and
//     calls Tree.PrepareRespawn, which fences the slot (any stale
//     reconnector loses the race permanently) and mints a one-shot
//     recovery token.
//  2. The respawned process dials with the token (DialWorkerResume). The
//     handshake validates and consumes the token, then — in one topology
//     change (Tree.retopo) — re-gids the worker's first-layer placeholders,
//     cuts the per-leaf journals (snapshot + watermarks + seal in one
//     critical section), and splits the coordinator's unacked outbox per
//     link at the cut watermark: journal-covered frames are dropped (the
//     shipment replays them; resending would duplicate non-idempotent rank
//     events), stragglers migrate onto the fresh links.
//  3. The welcome (carrying the fresh gid layout) and the journal shipment
//     are written on the connection before the slot's send queue attaches,
//     so TCP FIFO guarantees the worker replays every shipped entry before
//     any live frame. The worker replays entries as unframed envelopes
//     (consuming no resequencer state) and reports completion.
//  4. Surviving workers get a respawn broadcast: they re-key their
//     placeholders and migrate every unacked pending onto the fresh links
//     (at-least-once with preserved order, absorbed by protocol dedup —
//     the same contract as the in-process migrateTo).
//
// Recovery never trades correctness for availability: if the journal
// overflowed its cap, or the respawn budget expires, PrepareRespawn (or
// the admission itself) fails and the existing budget/degrade path splices
// the worker out into an honest PARTIAL report.

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"time"

	"dwst/internal/supervise"
	"dwst/internal/wire"
)

// PrepareRespawn fences a dead worker's slot for supervised respawn and
// mints the one-shot recovery token the respawned process must present.
// It fails — and the caller must let the degradation path take over —
// when the slot is degraded, was never admitted (a fresh spawn joins
// through the normal handshake), still has a live connection (a transient
// blip, not a process death), or any owned leaf's journal overflowed its
// cap (exact recovery impossible).
func (t *Tree) PrepareRespawn(worker int) (string, error) {
	fab := t.net
	if fab == nil || fab.role != NetCoordinator || fab.journals == nil {
		return "", errors.New("tbon: PrepareRespawn requires a coordinator with Recover on")
	}
	if worker < 0 || worker >= len(fab.slots) {
		return "", fmt.Errorf("tbon: invalid worker id %d", worker)
	}
	for _, idx := range fab.leavesOf(worker) {
		if fab.journals[idx].Overflowed() {
			return "", fmt.Errorf("tbon: worker %d leaf %d journal overflowed: past exact recovery", worker, idx)
		}
	}
	var tok [16]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return "", err
	}
	token := hex.EncodeToString(tok[:])
	sl := fab.slots[worker]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	switch {
	case sl.degraded:
		return "", fmt.Errorf("tbon: worker %d degraded: nodes already spliced out", worker)
	case sl.inc == 0:
		return "", fmt.Errorf("tbon: worker %d never admitted: respawn joins via the normal handshake", worker)
	case sl.sq.isUp():
		return "", fmt.Errorf("tbon: worker %d still connected: not a process death", worker)
	}
	// Fence now: a stale reconnector presenting the old incarnation loses
	// the race against the supervised respawn, permanently.
	sl.inc++
	sl.resumeToken = token
	sl.lastProgress = time.Now()
	return token, nil
}

// resumeHandshake admits one respawned worker presenting a recovery token.
// Runs on the handshake goroutine and becomes the slot's reader.
func (fab *netFabric) resumeHandshake(sl *workerSlot, conn net.Conn, br *bufio.Reader, token string) {
	sl.mu.Lock()
	if sl.degraded {
		sl.mu.Unlock()
		fab.reject(conn, "worker slot degraded: budget exceeded, nodes spliced out")
		return
	}
	if sl.resumeToken == "" || token != sl.resumeToken {
		sl.mu.Unlock()
		fab.reject(conn, "invalid recovery token: respawn fenced")
		return
	}
	sl.resumeToken = "" // one-shot: a racing second claimant is fenced
	inc := sl.inc
	sl.lastProgress = time.Now()
	sl.mu.Unlock()

	leaves, newGids, shipment, droppedRank, ok := fab.readmitSwap(sl)
	for idx, n := range droppedRank {
		fab.releaseWindowIdx(idx, n)
	}
	// Surviving workers must learn the fresh gids even if the admission
	// fails below: their unacked pendings toward the retired gids migrate
	// on this broadcast, and would otherwise pin the in-flight gate.
	if buf, bok := fab.encodeFrame(wire.KindRespawn, -1, wireRespawn{Leaves: leaves, NewGids: newGids}); bok {
		for _, other := range fab.slots {
			if other != sl {
				other.sq.push(buf)
			}
		}
	}
	if !ok {
		// A journal overflowed between the token mint and the cut: exact
		// recovery is off the table. The swap itself stays consistent (the
		// fresh gids are just another fenced incarnation); the budget clock
		// decides the slot's fate through the honest degrade path.
		fab.reject(conn, "journal overflowed: past exact recovery")
		return
	}

	// Welcome (fresh gid layout) and shipment travel before the slot's
	// send queue attaches: TCP FIFO then guarantees the worker replays
	// every shipped entry before it sees any live frame.
	if err := fab.writeSync(conn, wire.KindWelcome, fab.welcome(inc)); err != nil {
		conn.Close()
		return
	}
	if !fab.shipJournals(sl, conn, leaves, shipment) {
		conn.Close()
		return
	}

	fab.admit(sl, conn, br, leaves)
}

// readmitSwap is the atomic core of re-admission: in one topology change
// it re-gids every leaf the worker owns, cuts its journal, and splits the
// coordinator's unacked outbox at the cut watermark. ok is false when any
// journal overflowed (the swap still completes so the fabric stays
// consistent, but nothing may be shipped).
func (fab *netFabric) readmitSwap(sl *workerSlot) (leaves, newGids []int, shipment map[int][][]byte, droppedRank map[int]int, ok bool) {
	shipment = make(map[int][][]byte)
	droppedRank = make(map[int]int)
	ok = true
	leaves = fab.leavesOf(sl.w)
	fab.t.retopo(func(tp *topology, tr *transport) {
		for _, idx := range leaves {
			payloads, marks := fab.journals[idx].Cut(tp.layers[0][idx].gid)
			if marks == nil {
				ok = false // overflow: marks read 0, everything migrates; admission is rejected anyway
			}
			shipment[idx] = payloads
			neu := tp.nextGid
			droppedRank[idx] = fab.t.regid(tp, tr, idx, neu, func(key linkKey) int64 {
				return marks[supervise.LinkID{From: key.from, Class: int(key.class), Dst: key.to}]
			})
			newGids = append(newGids, neu)
		}
	})
	return leaves, newGids, shipment, droppedRank, ok
}

// regid publishes a fresh placeholder for remote leaf idx under gid neu
// and, through cutOver with markFor, moves every unacked pending toward the
// retired gid onto the fresh links. Runs inside Tree.retopo. Returns the
// dropped rank-link pendings.
func (t *Tree) regid(tp *topology, tr *transport, idx, neu int, markFor func(linkKey) int64) int {
	old := tp.layers[0][idx]
	n := t.newNode(0, idx, neu, false)
	n.dead = old.dead
	tp.place(n)
	return tr.cutOver(old.gid, neu, markFor)
}

// shipJournals streams the journaled inputs in bounded chunks, ending with
// a Last marker (sent even for an empty shipment — it is what flips the
// worker out of its replaying state). Each successful chunk stamps the
// slot's progress clock, so a large shipment is not mistaken for a stalled
// recovery by the budget monitor.
func (fab *netFabric) shipJournals(sl *workerSlot, conn net.Conn, leaves []int, shipment map[int][][]byte) bool {
	const (
		maxChunkEntries = 256
		maxChunkBytes   = 256 << 10
	)
	write := func(rc wireRecover) bool {
		if err := fab.writeSync(conn, wire.KindRecover, rc); err != nil {
			return false
		}
		sl.mu.Lock()
		sl.lastProgress = time.Now()
		sl.mu.Unlock()
		return true
	}
	total := 0
	for _, idx := range leaves {
		ps := shipment[idx]
		total += len(ps)
		for start := 0; start < len(ps); {
			end := start + 1
			bytes := len(ps[start])
			for end < len(ps) && end-start < maxChunkEntries && bytes+len(ps[end]) < maxChunkBytes {
				bytes += len(ps[end])
				end++
			}
			if !write(wireRecover{Leaf: idx, Payloads: ps[start:end]}) {
				return false
			}
			start = end
		}
	}
	if !write(wireRecover{Leaf: -1, Last: true}) {
		return false
	}
	fab.shippedEntries.Add(uint64(total))
	return true
}

// applyRecover replays one recovery chunk into fresh node state (worker
// side; runs on the serial reader, before any live frame of the new
// incarnation can be read from the same connection).
func (fab *netFabric) applyRecover(rc wireRecover) {
	if fab.replayT0.IsZero() {
		fab.replayT0 = time.Now()
	}
	for _, p := range rc.Payloads {
		body, err := decodePayload(p)
		wd, ok := body.(wireData)
		if err != nil || !ok {
			fab.codecErrors.Add(1)
			continue
		}
		fab.replayOne(rc.Leaf, wd)
	}
	fab.replayed += uint64(len(rc.Payloads))
	if rc.Last {
		fab.send(wire.KindRecover, -1, wireRecoverDone{
			Worker:   fab.nc.Worker,
			Replayed: fab.replayed,
			Nanos:    time.Since(fab.replayT0).Nanoseconds(),
		})
		fab.t.retire(1) // the unit startNet held for the shipment
	}
}

// replayOne feeds one journaled input into the leaf it belongs to. Entries
// are addressed by first-layer index — the gids inside the payloads are
// from retired incarnations — and enter through enqueue unframed.
func (fab *netFabric) replayOne(leaf int, wd wireData) {
	leaves := fab.t.FirstLayer()
	if leaf < 0 || leaf >= len(leaves) || !leaves[leaf].local {
		fab.codecErrors.Add(1)
		return
	}
	fab.enqueue(leaves[leaf], wd, false)
}

// applyRespawn re-keys a respawned worker's leaves under their fresh gids
// (surviving-worker side): fresh topology placeholders, and every unacked
// pending toward the retired gids, which migrates in order onto the fresh
// links.
func (fab *netFabric) applyRespawn(wr wireRespawn) {
	zero := func(linkKey) int64 { return 0 }
	fab.t.retopo(func(tp *topology, tr *transport) {
		for i, idx := range wr.Leaves {
			if i >= len(wr.NewGids) || idx < 0 || idx >= fab.width0 {
				continue
			}
			if n := tp.layers[0][idx]; n.local || n.gid == wr.NewGids[i] {
				continue // not a peer's leaf, or a duplicate broadcast
			}
			fab.t.regid(tp, tr, idx, wr.NewGids[i], zero)
		}
	})
}
