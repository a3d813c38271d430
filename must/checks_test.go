package must_test

import (
	"strings"
	"testing"
	"time"

	"dwst/mpi"
	"dwst/must"
)

// TestCollectiveKindMismatchReported: half the ranks call Barrier while the
// other half calls Allreduce in the same wave — one of MUST's collective
// verification errors. The simulated MPI silently tolerates it (the paper's
// introduction: errors "may silently be tolerated by the underlying MPI
// implementation"); the tool must flag it.
func TestCollectiveKindMismatchReported(t *testing.T) {
	for _, mode := range []must.Mode{must.Distributed, must.Centralized} {
		rep := must.Run(4, func(p *mpi.Proc) {
			if p.Rank()%2 == 0 {
				p.Barrier(mpi.CommWorld)
			} else {
				p.Allreduce(mpi.Int64(1), mpi.CommWorld)
			}
			p.Finalize()
		}, opts(mode))
		if rep.AppAborted {
			t.Fatalf("mode %v: the runtime tolerates the mismatch; the run must complete", mode)
		}
		if len(rep.CallMismatches) == 0 {
			t.Fatalf("mode %v: collective kind mismatch not reported", mode)
		}
		if !strings.Contains(rep.CallMismatches[0], "Barrier") &&
			!strings.Contains(rep.CallMismatches[0], "Allreduce") {
			t.Fatalf("mode %v: mismatch text %q", mode, rep.CallMismatches[0])
		}
	}
}

// TestCollectiveRootMismatchReported: all ranks broadcast, but they disagree
// on the root argument.
func TestCollectiveRootMismatchReported(t *testing.T) {
	rep := must.Run(4, func(p *mpi.Proc) {
		root := 0
		if p.Rank() == 3 {
			root = 1 // wrong root on one rank
		}
		p.Bcast(mpi.Int64(int64(p.Rank())), root, mpi.CommWorld)
		p.Finalize()
	}, opts(must.Distributed))
	if len(rep.CallMismatches) == 0 {
		t.Fatal("root mismatch not reported")
	}
	if !strings.Contains(rep.CallMismatches[0], "root") {
		t.Fatalf("mismatch text %q", rep.CallMismatches[0])
	}
}

// TestNoMismatchOnCorrectCollectives guards against false mismatch reports.
func TestNoMismatchOnCorrectCollectives(t *testing.T) {
	rep := must.Run(6, func(p *mpi.Proc) {
		for i := 0; i < 5; i++ {
			p.Barrier(mpi.CommWorld)
			p.Allreduce(mpi.Int64(1), mpi.CommWorld)
			p.Bcast(mpi.Int64(2), 1, mpi.CommWorld)
			p.Reduce(mpi.Int64(3), 2, mpi.CommWorld)
		}
		p.Finalize()
	}, opts(must.Distributed))
	if len(rep.CallMismatches) != 0 {
		t.Fatalf("false mismatches: %v", rep.CallMismatches)
	}
}

// TestLostMessagesReported: sends that no receive ever matches are counted
// after a completed run.
func TestLostMessagesReported(t *testing.T) {
	for _, mode := range []must.Mode{must.Distributed, must.Centralized} {
		rep := must.Run(4, func(p *mpi.Proc) {
			if p.Rank() == 0 {
				// Three sends into the void (buffered, so the run finishes).
				for i := 0; i < 3; i++ {
					p.Send(mpi.Int64(int64(i)), 1, 99, mpi.CommWorld)
				}
			}
			p.Barrier(mpi.CommWorld)
			p.Finalize()
		}, opts(mode))
		if rep.AppAborted {
			t.Fatalf("mode %v: run must complete", mode)
		}
		if rep.LostMessages != 3 {
			t.Fatalf("mode %v: lost messages = %d, want 3", mode, rep.LostMessages)
		}
	}
}

// TestCallSiteTracking: with TrackCallSites on, blocked-operation
// descriptions point at the application source line of the call.
func TestCallSiteTracking(t *testing.T) {
	o := opts(must.Distributed)
	o.TrackCallSites = true
	rep := must.Run(2, deadlockProg, o)
	if !rep.Deadlock {
		t.Fatal("deadlock not detected")
	}
	cond := rep.Conditions[0]
	if !strings.Contains(cond, "must_test.go:") {
		t.Fatalf("condition lacks a call site: %q", cond)
	}
	if !strings.Contains(rep.HTML.String(), "must_test.go:") {
		t.Fatal("HTML report lacks call sites")
	}
	// Off by default: no source paths leak into conditions.
	rep = must.Run(2, deadlockProg, opts(must.Distributed))
	if strings.Contains(rep.Conditions[0], ".go:") {
		t.Fatalf("call site present without opt-in: %q", rep.Conditions[0])
	}
}

// TestToolMessageCensus sanity-checks the message statistics: every p2p
// pair costs one passSend, one recvActive and one recvActiveAck; every
// barrier wave costs one collectiveReady per first-layer node.
func TestToolMessageCensus(t *testing.T) {
	const pairs = 10
	rep := must.Run(2, func(p *mpi.Proc) {
		peer := 1 - p.Rank()
		for i := 0; i < pairs; i++ {
			if p.Rank() == 0 {
				p.Send(mpi.Int64(int64(i)), peer, i, mpi.CommWorld)
			} else {
				p.Recv(peer, i, mpi.CommWorld)
			}
		}
		p.Barrier(mpi.CommWorld)
		p.Finalize()
	}, must.Options{FanIn: 2, Timeout: 30 * time.Millisecond})
	tm := rep.ToolMessages
	if tm.PassSends != pairs {
		t.Fatalf("passSends = %d, want %d", tm.PassSends, pairs)
	}
	if tm.RecvActives != pairs || tm.RecvActiveAcks != pairs {
		t.Fatalf("recvActives = %d acks = %d, want %d each", tm.RecvActives, tm.RecvActiveAcks, pairs)
	}
	if tm.CollReadys != 1 { // one first-layer node (fan-in 2, 2 ranks)
		t.Fatalf("collReadys = %d, want 1", tm.CollReadys)
	}
	if tm.Total() != 3*pairs+1 {
		t.Fatalf("total = %d", tm.Total())
	}
}
