package p2pmatch

import (
	"math/rand"
	"slices"
	"testing"

	"dwst/internal/testseed"
	"dwst/internal/trace"
	"dwst/internal/tracegen"
)

func send(proc, ts, dest, tag int) SendInfo {
	return SendInfo{Proc: proc, TS: ts, Src: proc, Dest: dest, Tag: tag, Comm: trace.CommWorld, Kind: trace.Send}
}

func recv(proc, ts, src, tag int) RecvInfo {
	return RecvInfo{Proc: proc, TS: ts, Src: src, Tag: tag, Comm: trace.CommWorld}
}

func TestSimpleMatchEitherOrder(t *testing.T) {
	// Send first.
	e := NewEngine()
	if ms := e.AddSend(send(0, 0, 1, 7)); len(ms) != 0 {
		t.Fatalf("premature match %v", ms)
	}
	ms := e.AddRecv(recv(1, 0, 0, 7))
	if len(ms) != 1 || ms[0].Send.TS != 0 || ms[0].Recv.TS != 0 {
		t.Fatalf("match = %v", ms)
	}
	// Receive first.
	e = NewEngine()
	if ms := e.AddRecv(recv(1, 0, 0, 7)); len(ms) != 0 {
		t.Fatalf("premature match %v", ms)
	}
	if ms := e.AddSend(send(0, 0, 1, 7)); len(ms) != 1 {
		t.Fatalf("match = %v", ms)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	e := NewEngine()
	e.AddSend(send(0, 0, 1, 0))
	e.AddSend(send(0, 1, 1, 0))
	ms := e.AddRecv(recv(1, 0, 0, 0))
	if len(ms) != 1 || ms[0].Send.TS != 0 {
		t.Fatalf("first recv must match first send: %v", ms)
	}
	ms = e.AddRecv(recv(1, 1, 0, 0))
	if len(ms) != 1 || ms[0].Send.TS != 1 {
		t.Fatalf("second recv must match second send: %v", ms)
	}
}

func TestTagSelectivity(t *testing.T) {
	e := NewEngine()
	e.AddSend(send(0, 0, 1, 10))
	e.AddSend(send(0, 1, 1, 20))
	ms := e.AddRecv(recv(1, 0, 0, 20))
	if len(ms) != 1 || ms[0].Send.TS != 1 {
		t.Fatalf("tag-20 recv must skip tag-10 send: %v", ms)
	}
	ms = e.AddRecv(recv(1, 1, 0, 10))
	if len(ms) != 1 || ms[0].Send.TS != 0 {
		t.Fatalf("tag-10 recv: %v", ms)
	}
}

func TestWildcardWaitsForResolution(t *testing.T) {
	e := NewEngine()
	e.AddSend(send(0, 0, 1, 0))
	e.AddSend(send(2, 0, 1, 0))
	ms := e.AddRecv(recv(1, 0, trace.AnySource, trace.AnyTag))
	if len(ms) != 0 {
		t.Fatalf("wildcard must wait for Resolve: %v", ms)
	}
	ms = e.Resolve(1, 0, 2)
	if len(ms) != 1 || ms[0].Send.Proc != 2 {
		t.Fatalf("resolution to src 2: %v", ms)
	}
	if e.PendingSends(1) != 1 {
		t.Fatalf("send from 0 must remain: %d", e.PendingSends(1))
	}
}

func TestEarlierWildcardHoldsSends(t *testing.T) {
	// Irecv(ANY) posted at ts 0, then Recv(from 0) at ts 1. A send from 0
	// must be held until the wildcard resolves.
	e := NewEngine()
	e.AddRecv(recv(1, 0, trace.AnySource, trace.AnyTag))
	e.AddRecv(recv(1, 1, 0, 0))
	ms := e.AddSend(send(0, 0, 1, 0))
	if len(ms) != 0 {
		t.Fatalf("send must be held by the earlier wildcard: %v", ms)
	}
	// The wildcard actually matched the send from 0.
	ms = e.Resolve(1, 0, 0)
	if len(ms) != 1 || ms[0].Recv.TS != 0 {
		t.Fatalf("wildcard must take the held send: %v", ms)
	}
	// A second send from 0 now matches the deterministic receive.
	ms = e.AddSend(send(0, 1, 1, 0))
	if len(ms) != 1 || ms[0].Recv.TS != 1 {
		t.Fatalf("recv(from 0): %v", ms)
	}
}

func TestWildcardResolutionToOtherSourceReleasesHold(t *testing.T) {
	e := NewEngine()
	e.AddRecv(recv(1, 0, trace.AnySource, trace.AnyTag))
	e.AddRecv(recv(1, 1, 0, 0))
	e.AddSend(send(0, 0, 1, 0))
	ms := e.Resolve(1, 0, 2) // wildcard matched rank 2 instead
	if len(ms) != 1 || ms[0].Recv.TS != 1 || ms[0].Send.Proc != 0 {
		t.Fatalf("deterministic recv must get the released send: %v", ms)
	}
	// Wildcard (now src=2) matches when rank 2's send arrives.
	ms = e.AddSend(SendInfo{Proc: 2, TS: 0, Src: 2, Dest: 1, Tag: 0, Comm: trace.CommWorld})
	if len(ms) != 1 || ms[0].Recv.TS != 0 {
		t.Fatalf("resolved wildcard: %v", ms)
	}
}

func TestTagScopedWildcardHold(t *testing.T) {
	// Wildcard with tag 5 must not hold sends with tag 6.
	e := NewEngine()
	e.AddRecv(RecvInfo{Proc: 1, TS: 0, Src: trace.AnySource, Tag: 5, Comm: trace.CommWorld})
	e.AddRecv(recv(1, 1, 0, 6))
	ms := e.AddSend(send(0, 0, 1, 6))
	if len(ms) != 1 || ms[0].Recv.TS != 1 {
		t.Fatalf("tag-6 send must bypass tag-5 wildcard: %v", ms)
	}
}

func TestProbeObservesWithoutConsuming(t *testing.T) {
	e := NewEngine()
	e.AddSend(send(0, 0, 1, 3))
	ms := e.AddRecv(RecvInfo{Proc: 1, TS: 0, Src: 0, Tag: 3, Comm: trace.CommWorld, Probe: true})
	if len(ms) != 1 || !ms[0].Probe {
		t.Fatalf("probe match: %v", ms)
	}
	if e.PendingSends(1) != 1 {
		t.Fatal("probe must not consume the send")
	}
	ms = e.AddRecv(recv(1, 1, 0, 3))
	if len(ms) != 1 || ms[0].Probe {
		t.Fatalf("recv after probe: %v", ms)
	}
	if e.PendingSends(1) != 0 {
		t.Fatal("recv must consume the send")
	}
}

func TestUnmatchedQueries(t *testing.T) {
	e := NewEngine()
	e.AddSend(send(0, 0, 1, 0))
	e.AddSend(send(2, 0, 1, 1))
	us := e.UnmatchedSendsTo(1)
	if len(us) != 2 {
		t.Fatalf("unmatched sends %v", us)
	}
	if e.PendingRecvs(1) != 0 || e.PendingSends(1) != 2 {
		t.Fatal("pending counters wrong")
	}
}

// action is one input of the engine, in a rank's program order: a send, a
// receive or probe, or a wildcard's resolution (proc, ts, src).
type action struct {
	isSend  bool
	send    SendInfo
	recv    RecvInfo
	resolve *[3]int
}

// generatedActions generates a point-to-point trace from rng and returns
// it with each rank's engine inputs in program order.
func generatedActions(rng *rand.Rand) (*trace.MatchedTrace, [][]action) {
	cfg := tracegen.Default(2 + rng.Intn(6))
	cfg.PCollective = 0 // p2p only
	cfg.Events = 40 + rng.Intn(80)
	mt := tracegen.Generate(cfg, rng)
	queues := make([][]action, mt.NumProcs())
	for i := 0; i < mt.NumProcs(); i++ {
		for j := 0; j < mt.Len(i); j++ {
			op := mt.Op(trace.Ref{Proc: i, TS: j})
			switch {
			case op.Kind.IsSend():
				queues[i] = append(queues[i], action{isSend: true, send: SendInfo{
					Proc: i, TS: j, Src: i, Dest: op.Peer, Tag: op.Tag, Comm: op.Comm, Kind: op.Kind}})
			case op.Kind.IsRecv():
				queues[i] = append(queues[i], action{recv: RecvInfo{
					Proc: i, TS: j, Src: op.Peer, Tag: op.Tag, Comm: op.Comm, Probe: op.Kind.IsProbe()}})
				if op.Peer == trace.AnySource && op.Kind != trace.Irecv {
					// Blocking wildcard recv/probe: status right after.
					queues[i] = append(queues[i], action{resolve: &[3]int{i, j, op.ActualSrc}})
				}
			case op.Kind.IsCompletion():
				// Statuses of wildcard Irecvs resolved by this completion.
				for _, cr := range mt.CommOps(op) {
					co := mt.Op(cr)
					if co.Kind == trace.Irecv && co.Peer == trace.AnySource {
						queues[i] = append(queues[i], action{resolve: &[3]int{i, cr.TS, co.ActualSrc}})
					}
				}
			}
		}
	}
	return mt, queues
}

// interleave picks the ranks' actions in a random order that keeps each
// rank's program order.
func interleave(queues [][]action, rng *rand.Rand) []action {
	var out []action
	for {
		var live []int
		for i, q := range queues {
			if len(q) > 0 {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return out
		}
		i := live[rng.Intn(len(live))]
		out = append(out, queues[i][0])
		queues[i] = queues[i][1:]
	}
}

// apply hands one action to the engine and returns its matches.
func (a action) apply(e *Engine) []Match {
	switch {
	case a.resolve != nil:
		return e.Resolve(a.resolve[0], a.resolve[1], a.resolve[2])
	case a.isSend:
		return e.AddSend(a.send)
	default:
		return e.AddRecv(a.recv)
	}
}

// TestAgainstGeneratedGroundTruth replays randomly generated traces into the
// engine in random (per-rank-order-preserving) interleavings and checks the
// produced matching equals the generator's ground truth.
func TestAgainstGeneratedGroundTruth(t *testing.T) {
	testseed.Run(t, 0, 30, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		mt, queues := generatedActions(rng)
		e := NewEngine()
		got := map[trace.Ref]trace.Ref{}
		for _, a := range interleave(queues, rng) {
			for _, m := range a.apply(e) {
				sref := trace.Ref{Proc: m.Send.Proc, TS: m.Send.TS}
				rref := trace.Ref{Proc: m.Recv.Proc, TS: m.Recv.TS}
				if m.Probe {
					got[rref] = sref
				} else {
					got[sref] = rref
					got[rref] = sref
				}
			}
		}

		if len(got) != len(mt.P2P) {
			t.Fatalf("seed %d: %d matches, ground truth %d", seed, len(got), len(mt.P2P))
		}
		for k, v := range mt.P2P {
			if got[k] != v {
				t.Fatalf("seed %d: %v matched %v, want %v", seed, k, got[k], v)
			}
		}
	})
}

// TestCloneResolvesLikeOriginal: a checkpoint's engine (Clone) must behave
// exactly like the engine it was cut from, and share nothing with it. Each
// seed cuts a clone at a random point of a generated trace, feeds the rest
// to the original first and then to the clone — so a clone still sharing
// storage would see the original's changes — and requires the same matches,
// in the same order, from both.
func TestCloneResolvesLikeOriginal(t *testing.T) {
	testseed.Run(t, 0, 2000, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		_, queues := generatedActions(rng)
		acts := interleave(queues, rng)
		cut := rng.Intn(len(acts) + 1)
		e := NewEngine()
		for _, a := range acts[:cut] {
			a.apply(e)
		}
		cl := e.Clone()
		var want [][]Match
		for _, a := range acts[cut:] {
			want = append(want, slices.Clone(a.apply(e)))
		}
		for i, a := range acts[cut:] {
			if got := a.apply(cl); !slices.Equal(got, want[i]) {
				t.Fatalf("seed %d, action %d after a clone at %d: clone matched %v, original %v", seed, cut+i, cut, got, want[i])
			}
		}
		if cl.Emitted() != e.Emitted() {
			t.Fatalf("seed %d: clone emitted %d matches, original %d", seed, cl.Emitted(), e.Emitted())
		}
	})
}
