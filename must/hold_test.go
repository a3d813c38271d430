package must_test

// The intake hold (tbon/intake.go) bounds the trace window by holding a
// rank's next call while its first-layer node is behind. These programs pin
// that it bounds the window on a streaming workload and that it never
// changes a verdict or keeps a program from finishing: not when the tracker
// is stuck on a potential deadlock, not when one rank runs thousands of
// operations ahead of its receiver, and not when another rank spins and
// keeps the tree from ever going idle.

import (
	"testing"
	"time"

	"dwst/internal/tbon"
	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// holdRun runs prog under the tool and fails the test when the run does not
// finish within bound.
func holdRun(t *testing.T, procs int, prog mpi.Program, o must.Options, bound time.Duration) *must.Report {
	t.Helper()
	done := make(chan *must.Report, 1)
	go func() { done <- must.Run(procs, prog, o) }()
	select {
	case rep := <-done:
		if rep.Err != nil {
			t.Fatalf("run failed: %v", rep.Err)
		}
		return rep
	case <-time.After(bound):
		t.Fatalf("run did not finish within %v", bound)
		return nil
	}
}

// TestHoldBoundsStressWindow: on the Fig. 9 stress ring, no first-layer
// node's window exceeds its bound (EventBuf × hosted ranks) by more than one
// drain (16 events) per hosted rank.
func TestHoldBoundsStressWindow(t *testing.T) {
	const fanIn, drain = 4, 16
	rep := holdRun(t, 64, workload.Stress(1000), must.Options{FanIn: fanIn}, time.Minute)
	if rep.Deadlock || rep.AppAborted {
		t.Fatalf("stress: deadlock=%v aborted=%v", rep.Deadlock, rep.AppAborted)
	}
	if limit := (tbon.DefaultEventBuf + drain) * fanIn; rep.WindowHighWater > limit {
		t.Fatalf("window high water %d, want at most %d", rep.WindowHighWater, limit)
	}
}

// TestHoldKeepsPotentialDeadlock: the 126.lammps proxy with eager sends has
// a send-send potential deadlock. The tracker is stuck on it while the
// application runs on; held ranks must be let go, the application must
// finish, and the verdict stays a potential deadlock.
func TestHoldKeepsPotentialDeadlock(t *testing.T) {
	rep := holdRun(t, 64, workload.SpecApps("126.lammps").Build(400, 0), must.Options{}, time.Minute)
	if !rep.Deadlock || !rep.PotentialOnly || rep.AppAborted {
		t.Fatalf("deadlock=%v potentialOnly=%v aborted=%v, want a potential deadlock of a finished run",
			rep.Deadlock, rep.PotentialOnly, rep.AppAborted)
	}
}

// isendsAhead: rank 0 posts n eager Isends to rank 4, which sits on another
// first-layer node, before one Waitall; rank 4 receives them one by one.
func isendsAhead(n int) mpi.Program {
	return func(p *mpi.Proc) {
		switch p.Rank() {
		case 0:
			reqs := make([]*mpi.Request, n)
			for i := range reqs {
				reqs[i] = p.Isend(mpi.Int64(int64(i)), 4, 0, mpi.CommWorld)
			}
			p.Waitall(reqs...)
		case 4:
			for i := 0; i < n; i++ {
				p.Recv(0, 0, mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

func TestHoldIsendsBeforeWaitall(t *testing.T) {
	rep := holdRun(t, 8, isendsAhead(3000), must.Options{Timeout: 30 * time.Millisecond}, 30*time.Second)
	if rep.Deadlock || rep.AppAborted || rep.Verdict != must.VerdictNone {
		t.Fatalf("deadlock=%v aborted=%v verdict=%v, want none", rep.Deadlock, rep.AppAborted, rep.Verdict)
	}
}

// iprobeSpin: rank 0 runs n eager Isends ahead of rank 4, then sends the
// go-ahead; rank 4, on another first-layer node, spins on Iprobe until it
// sees the go-ahead and only then receives. The spin keeps the tree busy
// for as long as rank 0 is held, so only the hold's stale-slot release
// lets the program finish.
func iprobeSpin(n int) mpi.Program {
	return func(p *mpi.Proc) {
		switch p.Rank() {
		case 0:
			reqs := make([]*mpi.Request, n)
			for i := range reqs {
				reqs[i] = p.Isend(mpi.Int64(int64(i)), 4, 0, mpi.CommWorld)
			}
			p.Send(nil, 4, 1, mpi.CommWorld)
			p.Waitall(reqs...)
		case 4:
			for {
				if _, ok := p.Iprobe(0, 1, mpi.CommWorld); ok {
					break
				}
			}
			p.Recv(0, 1, mpi.CommWorld)
			for i := 0; i < n; i++ {
				p.Recv(0, 0, mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

func TestHoldIprobeSpinFinishes(t *testing.T) {
	rep := holdRun(t, 8, iprobeSpin(3000), must.Options{Timeout: 30 * time.Millisecond}, 30*time.Second)
	if rep.Deadlock || rep.AppAborted || rep.Verdict != must.VerdictNone {
		t.Fatalf("deadlock=%v aborted=%v verdict=%v, want none", rep.Deadlock, rep.AppAborted, rep.Verdict)
	}
}
