// Package supervise holds the coordinator-side state machines behind
// process-level self-healing of TCP workers: a deterministic capped
// exponential backoff for respawn pacing, and a per-leaf shipment journal
// that captures every encoded input frame the coordinator hub routes to a
// first-layer node so a respawned worker process can rebuild that node's
// state by exact replay.
//
// The package is deliberately dependency-free (stdlib only) so it can be
// imported from the transport, the orchestrator and tests without cycles.
//
// # Why the hub can journal completely
//
// Over TCP every input to a worker-owned first-layer node transits the
// coordinator: rank injections and parent-to-child traffic originate at
// the coordinator process, and worker-to-worker peer frames are relayed
// through the hub. Capturing the encoded payload bytes at the two
// coordinator egress points (direct sends and relays) therefore yields a
// complete, ordered record of the node's inputs — which is exactly what
// deterministic replay needs.
//
// # Ordering
//
// The only ordering the substrate guarantees receivers is per origin link
// FIFO (sequence numbers per (sender, class, destination) link); cross-link
// interleaving is nondeterministic even in a fault-free run. The journal
// mirrors that: it keeps one resequenced stream per origin link and ships
// each stream's contiguous prefix independently. Frames can reach the
// capture point out of order (senders assign sequence numbers under the
// transport lock but transmit outside it), so each stream holds back
// out-of-order entries until the gap fills, and drops duplicates
// (retransmits) by sequence number.
package supervise

import (
	"sync"
	"time"
)

// Backoff computes respawn delays: capped exponential growth from Base
// with deterministic ±25% jitter derived from (Seed, attempt). Determinism
// keeps chaos runs reproducible under MUST_TEST_SEED.
type Backoff struct {
	Base time.Duration // first-attempt delay; defaults to 100ms when ≤ 0
	Cap  time.Duration // growth ceiling (pre-jitter); defaults to 5s when ≤ 0
	Seed int64         // jitter stream selector
}

// splitmix64 finalizer: a cheap, well-mixed hash for jitter derivation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the pause before respawn attempt n (1-based). Attempt 1
// waits about Base, each further attempt doubles, capped at Cap; jitter
// spreads simultaneous respawns apart without breaking reproducibility.
func (b Backoff) Delay(attempt int) time.Duration {
	base, ceil := b.Base, b.Cap
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	// Jitter in [-25%, +25%): fraction from a splitmix64 draw keyed by
	// (seed, attempt) — same inputs, same delay, always.
	h := splitmix(uint64(b.Seed) + uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(h>>11) / (1 << 53) // [0, 1)
	return d + time.Duration(float64(d)*(frac-0.5)*0.5)
}

// LinkID names one directed origin link into a journaled leaf: the
// sender's id (rank for rank-event links, global node id otherwise), the
// link class, and the destination global id at capture time. Dst is part
// of the key because a respawned leaf gets a fresh global id and its new
// links restart sequence numbering at zero — folding generations together
// would make new-stream entries look like duplicates of the old one.
type LinkID struct {
	From  int
	Class int
	Dst   int
}

// stream is one origin link's resequencer: a contiguous prefix of encoded
// payloads plus held-back out-of-order arrivals.
type stream struct {
	id      LinkID
	next    int64            // sequence the prefix extends to (exclusive)
	entries [][]byte         // payloads for sequences [0, next)
	held    map[int64][]byte // out-of-order arrivals awaiting the gap fill
	sealed  bool             // stream's destination gid was retired
}

// DefaultCap bounds journal entries per leaf when the caller does not set
// a cap. Entries are whole encoded payloads, so this also bounds shipment
// size; a leaf whose history outgrows the cap is no longer exactly
// recoverable and the run falls back to honest degradation.
const DefaultCap = 4096

// Journal captures the encoded inputs of one first-layer leaf. All methods
// are safe for concurrent use; Record is called from send and relay paths,
// the rest from the respawn admission sequence.
type Journal struct {
	mu       sync.Mutex
	cap      int
	stored   int // contiguous + held entries across streams
	overflow bool
	order    []*stream // creation order; replay ships streams in this order
	streams  map[LinkID]*stream
	dead     map[int]bool // retired destination gids: no new streams toward them
}

// NewJournal returns a journal bounded at cap entries (DefaultCap if
// cap ≤ 0).
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Journal{cap: cap, streams: make(map[LinkID]*stream), dead: make(map[int]bool)}
}

// Record captures one frame payload. payload must be owned by the journal
// (callers copy buffers that alias transient read buffers). Duplicate
// sequences (retransmits) and records to sealed streams are dropped. Once
// the cap is exceeded the journal frees its storage and only remembers the
// overflow — the leaf is past exact recovery.
func (j *Journal) Record(id LinkID, seq int64, payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.overflow {
		return
	}
	s := j.streams[id]
	if s == nil {
		if j.dead[id.Dst] {
			return // straggler to a retired gid: its frame migrates live
		}
		s = &stream{id: id, held: make(map[int64][]byte)}
		j.streams[id] = s
		j.order = append(j.order, s)
	}
	if s.sealed || seq < s.next {
		return // retired destination, or a retransmit of a covered sequence
	}
	if _, dup := s.held[seq]; dup {
		return
	}
	if seq == s.next {
		s.entries = append(s.entries, payload)
		s.next++
		j.stored++
		for {
			p, ok := s.held[s.next]
			if !ok {
				break
			}
			delete(s.held, s.next)
			s.entries = append(s.entries, p)
			s.next++
		}
	} else {
		s.held[seq] = payload
		j.stored++ // held entries count against the cap: they hold memory
	}
	if j.stored > j.cap {
		j.overflow = true
		j.order, j.streams = nil, make(map[LinkID]*stream) // free history
	}
}

// Overflowed reports whether the leaf's history outgrew the cap; an
// overflowed journal can never support exact recovery again.
func (j *Journal) Overflowed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.overflow
}

// Watermark returns the exclusive upper bound of id's contiguous prefix:
// sequences below it are journal-covered, sequences at or above it are
// not (stragglers that must migrate as live retransmissions).
func (j *Journal) Watermark(id LinkID) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if s := j.streams[id]; s != nil {
		return s.next
	}
	return 0
}

// Ship snapshots every stream's contiguous prefix, streams in creation
// order, as one flat payload list ready for chunked shipment. Held
// (out-of-order) entries are excluded: their frames are still unacked at
// the sender and migrate onto the fresh link instead. Returns nil if the
// journal overflowed.
func (j *Journal) Ship() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.overflow {
		return nil
	}
	var out [][]byte
	for _, s := range j.order {
		out = append(out, s.entries...)
	}
	return out
}

// Seal retires every stream destined to gid: held entries are dropped
// (their frames migrate as unacked pendings and re-journal under the
// fresh link) and late Records to the retired destination are ignored,
// so a straggler cannot be both shipped from the old stream and replayed
// through the new one.
func (j *Journal) Seal(gid int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seal(gid)
}

func (j *Journal) seal(gid int) {
	j.dead[gid] = true
	for _, s := range j.order {
		if s.id.Dst != gid || s.sealed {
			continue
		}
		s.sealed = true
		j.stored -= len(s.held)
		s.held = nil
	}
}

// Cut is the respawn-admission snapshot: in one critical section it ships
// the journal (like Ship), returns each live stream's watermark (like
// Watermark, for streams destined to gid), and seals gid (like Seal).
// Atomicity is what makes the swap's covered-vs-straggler split exact: a
// concurrent Record can land entirely before the cut (entry shipped,
// watermark includes it, its pending is dropped) or entirely after (entry
// refused, its pending migrates) — never half of each. Returns nil marks
// if the journal overflowed.
func (j *Journal) Cut(gid int) (payloads [][]byte, marks map[LinkID]int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.overflow {
		return nil, nil
	}
	marks = make(map[LinkID]int64)
	for _, s := range j.order {
		payloads = append(payloads, s.entries...)
		if s.id.Dst == gid {
			marks[s.id] = s.next
		}
	}
	j.seal(gid)
	return payloads, marks
}

// Entries returns the count of contiguous (shippable) entries.
func (j *Journal) Entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, s := range j.order {
		n += len(s.entries)
	}
	return n
}
