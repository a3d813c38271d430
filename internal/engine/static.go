package engine

import (
	"fmt"
	"sort"

	"dwst/internal/trace"
)

// Static is the pre-run queue-matching engine in the spirit of Liao et
// al.'s static deadlock detection for the MPI synchronous-communication
// sequential model: it simulates the recorded per-rank call sequences
// under strict synchronous semantics (standard sends block until matched,
// collectives synchronize) by matching send and receive queues directly —
// no wait-for graph, no runtime, no schedule. Worklist-driven, each
// operation is matched at most once, so the pass is linear in the trace
// size for the deterministic programs it accepts.
//
// The engine is deliberately narrow: it refuses traces with wildcard
// receives, probes, any-completion waits, or recording limits
// (ErrInapplicable) — the deterministic subset is exactly where queue
// matching is exact. Because it uses the strict model, a deadlock it
// predicts may be a *potential* deadlock that an eager (buffering)
// runtime does not manifest; run-level comparison accounts for that
// asymmetry.
type Static struct{}

// Name implements Engine.
func (Static) Name() string { return "static" }

// Analyze implements Engine.
func (Static) Analyze(in Input) (Verdict, []int, error) {
	if len(in.TraceLimits) > 0 {
		return VerdictNone, nil, fmt.Errorf("%w: trace has recording limits: %s", ErrInapplicable, in.TraceLimits[0])
	}
	n := len(in.Trace)
	if err := checkDeterministic(in.Trace, n); err != nil {
		return VerdictNone, nil, err
	}
	unfinished := simulate(in.Trace, n)
	if len(unfinished) == 0 {
		return VerdictNone, nil, nil
	}
	return VerdictDeadlock, unfinished, nil
}

// checkDeterministic verifies the trace is in the engine's domain: world
// communicator only, no wildcards, no probes, no data- or
// schedule-dependent completion choices.
func checkDeterministic(ops [][]trace.Op, n int) error {
	for rank := range ops {
		for i := range ops[rank] {
			op := &ops[rank][i]
			if op.Comm != trace.CommWorld {
				return fmt.Errorf("%w: rank %d uses a derived communicator", ErrInapplicable, rank)
			}
			switch op.Kind {
			case trace.Probe, trace.Iprobe:
				return fmt.Errorf("%w: rank %d uses probes", ErrInapplicable, rank)
			case trace.Waitany, trace.Waitsome, trace.Test, trace.Testall, trace.Testany, trace.Testsome:
				return fmt.Errorf("%w: rank %d uses schedule-dependent completion (%s)", ErrInapplicable, rank, op.Kind)
			case trace.CommDup, trace.CommSplit:
				return fmt.Errorf("%w: rank %d creates communicators", ErrInapplicable, rank)
			}
			if op.Kind == trace.Recv || op.Kind == trace.Irecv {
				if op.Peer == trace.AnySource || op.Tag == trace.AnyTag {
					return fmt.Errorf("%w: rank %d uses a wildcard receive", ErrInapplicable, rank)
				}
			}
			if op.Kind == trace.Sendrecv {
				if op.SendrecvPeer == trace.AnySource || op.SendrecvTag == trace.AnyTag {
					return fmt.Errorf("%w: rank %d uses a wildcard Sendrecv source", ErrInapplicable, rank)
				}
			}
			if op.Kind.IsSend() || op.Kind == trace.Sendrecv {
				if op.Peer < 0 || op.Peer >= n {
					return fmt.Errorf("%w: rank %d sends to invalid rank %d", ErrInapplicable, rank, op.Peer)
				}
			}
			if op.Kind == trace.Recv || op.Kind == trace.Irecv {
				if op.Peer >= n {
					return fmt.Errorf("%w: rank %d receives from invalid rank %d", ErrInapplicable, rank, op.Peer)
				}
			}
		}
	}
	return nil
}

// offer is one side of a pending point-to-point match.
type offer struct {
	rank    int // posting rank
	tag     int
	req     trace.ReqID // nonblocking request it completes (0 = blocking op)
	matched bool
}

// chanKey identifies a directed (sender → receiver) match queue.
type chanKey struct{ from, to int }

// rankState is one rank's simulation cursor.
type rankState struct {
	pc      int
	posted  bool     // offers for the op at pc are already in the queues
	cur     []*offer // offers the op at pc blocks on
	atColl  trace.Kind
	inColl  bool
	reqDone map[trace.ReqID]bool
}

// simulate runs the synchronous-semantics queue matching to quiescence
// and returns the ranks that could not run to completion (ascending).
func simulate(ops [][]trace.Op, n int) []int {
	sendQ := map[chanKey][]*offer{}
	recvQ := map[chanKey][]*offer{}
	ranks := make([]*rankState, n)
	for i := range ranks {
		ranks[i] = &rankState{reqDone: map[trace.ReqID]bool{}}
	}
	done := func(i int) bool { return ranks[i].pc >= len(ops[i]) }

	work := make([]int, 0, n)
	inWork := make([]bool, n)
	wake := func(i int) {
		if !inWork[i] && !done(i) {
			inWork[i] = true
			work = append(work, i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		wake(i)
	}

	// matchFrom takes the earliest unmatched offer with an equal tag from
	// the opposing queue, popping matched leftovers as it goes.
	matchFrom := func(q map[chanKey][]*offer, k chanKey, tag int) *offer {
		list := q[k]
		for len(list) > 0 && list[0].matched {
			list = list[1:]
		}
		for idx, o := range list {
			if o.matched || o.tag != tag {
				continue
			}
			o.matched = true
			if idx == 0 {
				list = list[1:]
			}
			q[k] = list
			return o
		}
		q[k] = list
		return nil
	}

	complete := func(i int, o *offer) {
		if o.req != 0 {
			ranks[i].reqDone[o.req] = true
		}
		wake(i)
	}

	// postSend/postRecv try an immediate match, otherwise enqueue.
	postSend := func(o *offer, dest int) {
		if peer := matchFrom(recvQ, chanKey{from: o.rank, to: dest}, o.tag); peer != nil {
			o.matched = true
			complete(peer.rank, peer)
			complete(o.rank, o)
			return
		}
		k := chanKey{from: o.rank, to: dest}
		sendQ[k] = append(sendQ[k], o)
	}
	postRecv := func(o *offer, src int) {
		if peer := matchFrom(sendQ, chanKey{from: src, to: o.rank}, o.tag); peer != nil {
			o.matched = true
			complete(peer.rank, peer)
			complete(o.rank, o)
			return
		}
		k := chanKey{from: src, to: o.rank}
		recvQ[k] = append(recvQ[k], o)
	}

	// tryCollective advances every rank when all of them sit at the same
	// collective kind (the synchronous model's barrier semantics). A world
	// collective needs every rank: a rank that already finalized can never
	// join, so the collective is then permanently incomplete — exactly the
	// Section 3.1 terminal-state deadlock.
	tryCollective := func() {
		for i := 0; i < n; i++ {
			if done(i) || !ranks[i].inColl {
				return
			}
			if ranks[i].atColl != ranks[0].atColl {
				return // collective kind mismatch: nothing can ever advance
			}
		}
		for i := 0; i < n; i++ {
			ranks[i].inColl = false
			ranks[i].posted = false
			ranks[i].pc++
			wake(i)
		}
	}

	step := func(i int) bool { // one advance attempt; true = the pc moved
		r := ranks[i]
		op := &ops[i][r.pc]
		pcBefore := r.pc
		advance := func() {
			r.pc++
			r.posted = false
			r.cur = nil
		}
		switch {
		case op.Kind == trace.Send || op.Kind == trace.Ssend:
			if !r.posted {
				o := &offer{rank: i, tag: op.Tag}
				r.cur = []*offer{o}
				r.posted = true
				postSend(o, op.Peer)
			}
			if !r.cur[0].matched {
				return false
			}
			advance()
		case op.Kind == trace.Bsend || op.Kind == trace.Rsend:
			postSend(&offer{rank: i, tag: op.Tag}, op.Peer)
			advance()
		case op.Kind == trace.Isend || op.Kind == trace.Issend:
			postSend(&offer{rank: i, tag: op.Tag, req: op.Req}, op.Peer)
			advance()
		case op.Kind == trace.Ibsend || op.Kind == trace.Irsend:
			o := &offer{rank: i, tag: op.Tag, req: op.Req}
			r.reqDone[op.Req] = true // buffered: completes at post
			postSend(o, op.Peer)
			advance()
		case op.Kind == trace.Recv:
			if !r.posted {
				o := &offer{rank: i, tag: op.Tag}
				r.cur = []*offer{o}
				r.posted = true
				postRecv(o, op.Peer)
			}
			if !r.cur[0].matched {
				return false
			}
			advance()
		case op.Kind == trace.Irecv:
			postRecv(&offer{rank: i, tag: op.Tag, req: op.Req}, op.Peer)
			advance()
		case op.Kind == trace.Wait || op.Kind == trace.Waitall:
			for _, id := range op.Reqs {
				if id != 0 && !r.reqDone[id] {
					return false
				}
			}
			advance()
		case op.Kind == trace.Sendrecv:
			if !r.posted {
				so := &offer{rank: i, tag: op.Tag}
				ro := &offer{rank: i, tag: op.SendrecvTag}
				r.cur = []*offer{so, ro}
				r.posted = true
				postSend(so, op.Peer)
				postRecv(ro, op.SendrecvPeer)
			}
			if !r.cur[0].matched || !r.cur[1].matched {
				return false
			}
			advance()
		case op.Kind.IsCollective():
			if !r.posted {
				r.posted = true
				r.inColl = true
				r.atColl = op.Kind
				tryCollective() // may advance this rank (and all others)
			}
		case op.Kind == trace.Finalize:
			advance()
		default:
			advance() // kinds filtered by checkDeterministic cannot occur
		}
		return r.pc != pcBefore
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		for !done(i) && step(i) {
		}
	}

	var unfinished []int
	for i := 0; i < n; i++ {
		if !done(i) {
			unfinished = append(unfinished, i)
		}
	}
	sort.Ints(unfinished)
	return unfinished
}
