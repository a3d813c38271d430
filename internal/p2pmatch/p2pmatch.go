// Package p2pmatch implements the tool's point-to-point matching: it
// reconstructs which send matches which receive purely from the observed
// call events, following MPI matching semantics (per-(sender, communicator)
// non-overtaking order, tag selectivity, wildcards).
//
// Wildcard receives are matched only once the application's matching
// decision is observed through a Status event (the paper observes return
// values to avoid false positives). Until an outstanding wildcard receive
// is resolved, sends it could match are held back, because a later
// deterministic receive must not steal them. For *blocking* wildcard
// receives this situation cannot occur (per-rank event order guarantees the
// status precedes any later receive), but non-blocking MPI_Irecv(ANY)
// resolves only at its completion operation.
//
// The engine is used by both the distributed first layer (one engine per
// tool node, fed by local receive events and remote passSend messages) and
// the centralized baseline (one engine for all ranks).
package p2pmatch

import (
	"fmt"
	"slices"

	"dwst/internal/trace"
)

// SendInfo describes a send operation relevant for matching.
type SendInfo struct {
	Proc int // sender world rank
	TS   int // sender-local timestamp
	Src  int // sender's group rank within Comm
	Dest int // destination world rank
	Tag  int
	Comm trace.CommID
	Kind trace.Kind
}

// RecvInfo describes a receive or probe operation relevant for matching.
type RecvInfo struct {
	Proc  int // receiver world rank
	TS    int
	Src   int // requested source (group rank within Comm) or AnySource
	Tag   int // requested tag or AnyTag
	Comm  trace.CommID
	Probe bool
}

// Match pairs a send with the receive (or probe) that matched it.
type Match struct {
	Send  SendInfo
	Recv  RecvInfo
	Probe bool // the "receive" is a probe: the send remains matchable
}

// Engine matches sends and receives for a set of receiving ranks. It is not
// safe for concurrent use; each tool node owns one.
//
// AddSend, AddRecv and Resolve return their matches in a buffer the engine
// owns: it is valid until the next call of any of the three. Callers consume
// the matches before they call the engine again.
type Engine struct {
	// state per receiving world rank
	ranks map[int]*rankState
	// matches emitted (for inspection and tests)
	emitted int
	// out is drain's result buffer, reused by every call.
	out []Match
}

type rankState struct {
	// recvs in post order that are not yet matched. A wildcard keeps Src
	// AnySource until Resolve writes the observed source there.
	recvs []RecvInfo
	// wild counts the unresolved wildcards in recvs.
	wild int
	// sends that arrived but are not yet matched, in arrival order per
	// (sender, comm) — a flat list scanned in order preserves per-sender
	// order because each sender's sends arrive in send order.
	sends []SendInfo
}

// NewEngine returns an empty matching engine.
func NewEngine() *Engine {
	return &Engine{ranks: make(map[int]*rankState)}
}

func (e *Engine) rank(r int) *rankState {
	st := e.ranks[r]
	if st == nil {
		st = &rankState{}
		e.ranks[r] = st
	}
	return st
}

// Emitted returns the number of matches produced so far.
func (e *Engine) Emitted() int { return e.emitted }

// Clone returns a deep copy of the engine for checkpointing.
func (e *Engine) Clone() *Engine {
	cl := &Engine{ranks: make(map[int]*rankState, len(e.ranks)), emitted: e.emitted}
	for r, st := range e.ranks {
		cl.ranks[r] = &rankState{recvs: slices.Clone(st.recvs), wild: st.wild, sends: slices.Clone(st.sends)}
	}
	return cl
}

// AddSend registers an observed send. It returns the matches it produces
// (possibly several: probes plus the consuming receive).
func (e *Engine) AddSend(s SendInfo) []Match {
	st := e.rank(s.Dest)
	st.sends = append(st.sends, s)
	return e.drain(st)
}

// AddRecv registers an observed receive or probe.
func (e *Engine) AddRecv(r RecvInfo) []Match {
	st := e.rank(r.Proc)
	st.recvs = append(st.recvs, r)
	if r.Src == trace.AnySource {
		st.wild++
	}
	return e.drain(st)
}

// Resolve records the observed matching decision of a wildcard receive:
// operation (proc, ts) received from group rank src. It may release held
// sends and produce matches.
func (e *Engine) Resolve(proc, ts, src int) []Match {
	st := e.rank(proc)
	for i := range st.recvs {
		if r := &st.recvs[i]; r.TS == ts && r.Src == trace.AnySource {
			r.Src = src
			st.wild--
			return e.drain(st)
		}
	}
	// Unknown wildcard: tolerated (e.g. resolution raced with a probe that
	// already matched), nothing to do.
	return nil
}

// DropRank tombstones a crashed receiving rank: its pending receives and
// unresolved wildcards are discarded (a dead rank consumes nothing
// further), mirroring the simulator's mailbox tombstone. Sends destined
// to the rank are kept — they are permanently unmatchable and surface as
// unmatched sends in the failure report. Dropping the wildcards may
// release sends they were holding for *other* pending ops, but with the
// rank's receives gone no further matches can involve it, so drain is not
// needed here.
func (e *Engine) DropRank(rank int) {
	st := e.rank(rank)
	st.recvs = st.recvs[:0]
	st.wild = 0
}

// PendingRecvs returns the number of unmatched receives of a rank.
func (e *Engine) PendingRecvs(rank int) int { return len(e.rank(rank).recvs) }

// PendingSends returns the number of unmatched sends destined to a rank.
func (e *Engine) PendingSends(rank int) int { return len(e.rank(rank).sends) }

// UnmatchedSendsTo returns copies of the held/unmatched sends destined to a
// rank (for unexpected-match analysis in deadlock reports).
func (e *Engine) UnmatchedSendsTo(rank int) []SendInfo {
	return slices.Clone(e.rank(rank).sends)
}

// drain performs all now-determined matches for a receiving rank.
//
// Matching discipline: walk the unmatched receives in post order. A receive
// is matchable when its source is determined (not an unresolved wildcard).
// It matches the first unmatched send (arrival order) from its source with a
// compatible tag — unless an unresolved wildcard receive posted EARLIER
// could also accept that send, in which case the send is held and matching
// for this receive stops (the wildcard's resolution decides ownership).
func (e *Engine) drain(st *rankState) []Match {
	out := e.out[:0]
	progress := true
	for progress {
		progress = false
		for ri := 0; ri < len(st.recvs); ri++ {
			r := &st.recvs[ri]
			if r.Src == trace.AnySource {
				continue // unresolved wildcard: matched only via Resolve
			}
			si := st.findSend(r)
			if si < 0 {
				continue
			}
			if st.heldByEarlierWildcard(ri, &st.sends[si]) {
				continue
			}
			// Commit the match.
			out = append(out, Match{Send: st.sends[si], Recv: *r, Probe: r.Probe})
			e.emitted++
			if !r.Probe {
				st.sends = slices.Delete(st.sends, si, si+1)
			}
			st.recvs = slices.Delete(st.recvs, ri, ri+1)
			progress = true
			break // restart scan: indices shifted
		}
	}
	e.out = out
	return out
}

// findSend returns the index of the first unmatched send from r.Src with a
// compatible tag, or -1. Probes observe the same send a receive would.
func (st *rankState) findSend(r *RecvInfo) int {
	for i := range st.sends {
		s := &st.sends[i]
		if s.Comm != r.Comm || s.Src != r.Src {
			continue
		}
		if r.Tag != trace.AnyTag && s.Tag != r.Tag {
			continue
		}
		return i
	}
	return -1
}

// heldByEarlierWildcard reports whether an unresolved wildcard receive
// posted before recvs[ri] could accept send s; if so, s must not be matched
// to that receive yet.
func (st *rankState) heldByEarlierWildcard(ri int, s *SendInfo) bool {
	if st.wild == 0 {
		return false
	}
	for i := range st.recvs[:ri] {
		w := &st.recvs[i]
		if w.Src != trace.AnySource || w.Comm != s.Comm {
			continue
		}
		if w.Tag != trace.AnyTag && w.Tag != s.Tag {
			continue
		}
		return true
	}
	return false
}

func (s SendInfo) String() string {
	return fmt.Sprintf("send(%d,%d)→%d tag %d comm %d", s.Proc, s.TS, s.Dest, s.Tag, s.Comm)
}

func (r RecvInfo) String() string {
	kind := "recv"
	if r.Probe {
		kind = "probe"
	}
	return fmt.Sprintf("%s(%d,%d)←%d tag %d comm %d", kind, r.Proc, r.TS, r.Src, r.Tag, r.Comm)
}
