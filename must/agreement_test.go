package must_test

import (
	"testing"
	"time"

	"dwst/mpi"
	"dwst/must"
)

// TestModesAgreeOnDeadlockSets runs deadlock scenarios under both tool
// architectures and checks they report the same deadlocked ranks — the
// distributed implementation must be exactly as precise as the centralized
// reference.
func TestModesAgreeOnDeadlockSets(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		prog  mpi.Program
		opts  func(o *must.Options)
	}{
		{
			name: "recv-recv-pairs", procs: 6,
			prog: func(p *mpi.Proc) {
				peer := p.Rank() ^ 1
				p.Recv(peer, 0, mpi.CommWorld)
				p.Send(nil, peer, 0, mpi.CommWorld)
				p.Finalize()
			},
		},
		{
			name: "wildcard-storm", procs: 8,
			prog: func(p *mpi.Proc) {
				p.Recv(mpi.AnySource, mpi.AnyTag, mpi.CommWorld)
				p.Finalize()
			},
		},
		{
			name: "partial-deadlock", procs: 6,
			prog: func(p *mpi.Proc) {
				// Ranks 0 and 1 deadlock; the rest finish cleanly.
				switch p.Rank() {
				case 0:
					p.Recv(1, 0, mpi.CommWorld)
				case 1:
					p.Recv(0, 0, mpi.CommWorld)
				default:
					p.Send(mpi.Int64(1), p.Rank()^1, 9, mpi.CommWorld)
					p.Recv(p.Rank()^1, 9, mpi.CommWorld)
				}
				p.Finalize()
			},
		},
		{
			name: "barrier-mismatch", procs: 5,
			prog: func(p *mpi.Proc) {
				if p.Rank() != 3 {
					p.Barrier(mpi.CommWorld)
				} else {
					p.Recv(0, 42, mpi.CommWorld)
				}
				p.Finalize()
			},
		},
		{
			name: "send-send-potential", procs: 4,
			prog: func(p *mpi.Proc) {
				peer := p.Rank() ^ 1
				p.Send(mpi.Int64(7), peer, 0, mpi.CommWorld)
				p.Recv(peer, 0, mpi.CommWorld)
				p.Finalize()
			},
		},
		{
			name: "waitall-deadlock", procs: 3,
			prog: func(p *mpi.Proc) {
				switch p.Rank() {
				case 0:
					r1 := p.Irecv(1, 0, mpi.CommWorld)
					r2 := p.Irecv(2, 0, mpi.CommWorld)
					p.Waitall(r1, r2) // rank 2 never sends
				case 1:
					p.Send(nil, 0, 0, mpi.CommWorld)
					p.Finalize()
					return
				case 2:
					p.Recv(1, 1, mpi.CommWorld) // never sent
				}
				p.Finalize()
			},
		},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			base := must.Options{FanIn: 2, Timeout: 30 * time.Millisecond}
			if c.opts != nil {
				c.opts(&base)
			}
			distOpts := base
			centOpts := base
			centOpts.Mode = must.Centralized

			dist := must.Run(c.procs, c.prog, distOpts)
			cent := must.Run(c.procs, c.prog, centOpts)

			if dist.Deadlock != cent.Deadlock {
				t.Fatalf("deadlock disagreement: dist=%v cent=%v", dist.Deadlock, cent.Deadlock)
			}
			if !dist.Deadlock {
				t.Fatal("expected a deadlock in this scenario")
			}
			if len(dist.Deadlocked) != len(cent.Deadlocked) {
				t.Fatalf("deadlocked sets differ: dist=%v cent=%v", dist.Deadlocked, cent.Deadlocked)
			}
			for i := range dist.Deadlocked {
				if dist.Deadlocked[i] != cent.Deadlocked[i] {
					t.Fatalf("deadlocked sets differ: dist=%v cent=%v", dist.Deadlocked, cent.Deadlocked)
				}
			}
			if dist.PotentialOnly != cent.PotentialOnly {
				t.Fatalf("potential-only disagreement: dist=%v cent=%v",
					dist.PotentialOnly, cent.PotentialOnly)
			}
			if len(dist.Groups) != len(cent.Groups) {
				t.Fatalf("deadlock group counts differ: dist=%v cent=%v",
					dist.Groups, cent.Groups)
			}
		})
	}
}

// TestBackpressureDoesNotBreakDetection shrinks the event buffers to force
// heavy application backpressure and checks correctness is unaffected.
func TestBackpressureDoesNotBreakDetection(t *testing.T) {
	opts := must.Options{FanIn: 2, Timeout: 30 * time.Millisecond, EventBuf: 2}
	rep := must.Run(8, func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		for i := 0; i < 30; i++ {
			p.Sendrecv(mpi.Int64(int64(i)), right, 0, left, 0, mpi.CommWorld)
		}
		// Then deadlock: everyone receives from the right with no sender.
		p.Recv(right, 99, mpi.CommWorld)
		p.Finalize()
	}, opts)
	if !rep.Deadlock || len(rep.Deadlocked) != 8 {
		t.Fatalf("deadlock=%v deadlocked=%v", rep.Deadlock, rep.Deadlocked)
	}
}

// TestSlowLinksDoNotBreakDetection injects per-message delays on the tool's
// internal links: detection must stay correct (no false positives on a
// clean run, reliable detection on a deadlock) even when handshake and
// snapshot messages crawl.
func TestSlowLinksDoNotBreakDetection(t *testing.T) {
	slow := must.Options{FanIn: 2, Timeout: 40 * time.Millisecond, LinkDelay: time.Millisecond}

	rep := must.Run(4, func(p *mpi.Proc) {
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() + p.Size() - 1) % p.Size()
		for i := 0; i < 5; i++ {
			p.Sendrecv(mpi.Int64(int64(i)), right, 0, left, 0, mpi.CommWorld)
		}
		p.Barrier(mpi.CommWorld)
		p.Finalize()
	}, slow)
	if rep.Deadlock || rep.AppAborted {
		t.Fatalf("slow links caused a false result: deadlock=%v aborted=%v (%v)",
			rep.Deadlock, rep.AppAborted, rep.Conditions)
	}

	rep = must.Run(2, deadlockProg, slow)
	if !rep.Deadlock {
		t.Fatal("deadlock not detected over slow links")
	}
}
