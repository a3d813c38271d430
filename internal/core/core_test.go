package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dwst/internal/fault"
	"dwst/internal/mpisim"
	"dwst/internal/testseed"
	"dwst/internal/trace"
)

var cfg = Options{FanIn: 2, Timeout: 30 * time.Millisecond}

func TestCleanRingRun(t *testing.T) {
	const p = 8
	res := Run(p, func(pr *mpisim.Proc) {
		right := (pr.Rank() + 1) % p
		left := (pr.Rank() + p - 1) % p
		for i := 0; i < 20; i++ {
			pr.Sendrecv([]byte{byte(i)}, right, 0, left, 0, trace.CommWorld)
			if i%5 == 0 {
				pr.Barrier(trace.CommWorld)
			}
		}
		pr.Finalize()
	}, cfg)
	if res.AbortCause != nil {
		t.Fatalf("app error: %v", res.AbortCause)
	}
	if res.Deadlock {
		t.Fatalf("false positive: %v", res.Conditions)
	}
}

// TestQuiescenceGiveUpIsUnverified: every peer message stalls its link for
// longer than the (shortened) quiescence deadline, and retransmission waits
// longer still, so frames stay unacknowledged when the final detection has
// to go ahead. It finds nothing on a clean ring — which must be reported as
// unverified, not as a clean bill of health.
func TestQuiescenceGiveUpIsUnverified(t *testing.T) {
	old := quiesceDeadline
	quiesceDeadline = 20 * time.Millisecond
	defer func() { quiesceDeadline = old }()

	const p = 4
	done := make(chan *Report, 1)
	go func() {
		done <- Run(p, func(pr *mpisim.Proc) {
			right := (pr.Rank() + 1) % p
			left := (pr.Rank() + p - 1) % p
			for i := 0; i < 5; i++ {
				pr.Sendrecv([]byte{byte(i)}, right, 0, left, 0, trace.CommWorld)
			}
			pr.Finalize()
		}, Options{
			FanIn: 2, Timeout: 30 * time.Millisecond, SnapshotDeadline: 5 * time.Second,
			Fault: &fault.Plan{
				Seed:      1,
				Rules:     []fault.Rule{{Link: fault.PeerLink, StallEvery: 1, StallFor: 150 * time.Millisecond}},
				RetryBase: time.Second,
				RetryCap:  time.Second,
			},
		})
	}()
	var res *Report
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("run did not terminate")
	}
	if res.Deadlock || res.AppAborted {
		t.Fatalf("clean ring: deadlock=%v aborted=%v (%v)", res.Deadlock, res.AppAborted, res.AbortCause)
	}
	if !res.FinalUnverified || !res.Partial {
		t.Fatalf("FinalUnverified=%v Partial=%v after a final detection on an undrained tool; want both",
			res.FinalUnverified, res.Partial)
	}
}

// recvRecv deadlocks two ranks that both receive first.
func recvRecv(pr *mpisim.Proc) {
	peer := 1 - pr.Rank()
	pr.Recv(peer, 0, trace.CommWorld)
	pr.Send(nil, peer, 0, trace.CommWorld)
	pr.Finalize()
}

// fig2b is Figure 2(b) on three ranks: with rendezvous sends, the final
// sends deadlock.
func fig2b(pr *mpisim.Proc) {
	switch pr.Rank() {
	case 0:
		pr.Send(nil, 1, 0, trace.CommWorld)
		pr.Barrier(trace.CommWorld)
		pr.Send(nil, 1, 0, trace.CommWorld)
		pr.Recv(2, 0, trace.CommWorld)
	case 1:
		pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
		pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
		pr.Barrier(trace.CommWorld)
		pr.Send(nil, 2, 0, trace.CommWorld)
		pr.Recv(0, 0, trace.CommWorld)
	case 2:
		pr.Send(nil, 1, 0, trace.CommWorld)
		pr.Barrier(trace.CommWorld)
		pr.Send(nil, 0, 0, trace.CommWorld)
		pr.Recv(1, 0, trace.CommWorld)
	}
	pr.Finalize()
}

// TestDetectionWaitsOutTheTimeout: the in-run detection that finds a
// deadlock starts only once the tree has stayed idle for Timeout — read
// from the driver's own idle and trigger stamps, not from a wall-clock
// bound — and a clean run pays for no detection but the final one.
func TestDetectionWaitsOutTheTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	var mu sync.Mutex
	var gaps []time.Duration // trigger stamp − idle stamp, per detection
	onTrigger = func(idleSince time.Time) {
		mu.Lock()
		gaps = append(gaps, time.Since(idleSince))
		mu.Unlock()
	}
	defer func() { onTrigger = nil }()
	for _, c := range []struct {
		name  string
		procs int
		prog  mpisim.Program
	}{{"recvrecv", 2, recvRecv}, {"fig2b", 3, fig2b}} {
		gaps = nil
		res := Run(c.procs, c.prog, Options{FanIn: 2, Timeout: timeout, Rendezvous: true})
		if !res.Deadlock || !res.AppAborted {
			t.Fatalf("%s: deadlock=%v aborted=%v, want the in-run detection's abort", c.name, res.Deadlock, res.AppAborted)
		}
		if len(gaps) == 0 {
			t.Fatalf("%s: the deadlock was found without an in-run trigger", c.name)
		}
		for _, g := range gaps {
			if g < timeout {
				t.Errorf("%s: detection started %v after the tree went idle, before the %v Timeout", c.name, g, timeout)
			}
		}
	}
	gaps = nil
	const p = 8
	res := Run(p, func(pr *mpisim.Proc) {
		for i := 0; i < 20; i++ {
			pr.Sendrecv([]byte{byte(i)}, (pr.Rank()+1)%p, 0, (pr.Rank()+p-1)%p, 0, trace.CommWorld)
		}
		pr.Finalize()
	}, Options{FanIn: 2, Timeout: timeout})
	if res.Deadlock || res.Detections != 1 || len(gaps) != 0 {
		t.Fatalf("clean ring: deadlock=%v detections=%d in-run triggers=%d, want only the final detection",
			res.Deadlock, res.Detections, len(gaps))
	}
}

func TestRecvRecvDeadlockDetected(t *testing.T) {
	res := Run(2, recvRecv, cfg)
	if !res.AppAborted || !errors.Is(res.AbortCause, ErrDeadlockDetected) {
		t.Fatalf("abort cause = %v, want the tool's deadlock abort", res.AbortCause)
	}
	if !res.Deadlock || res.PotentialOnly {
		t.Fatal("manifest deadlock not detected")
	}
	if len(res.Deadlocked) != 2 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
	if len(res.Cycle) != 2 {
		t.Fatalf("cycle = %v", res.Cycle)
	}
	if res.HTML.String() == "" || res.DOT.String() == "" {
		t.Fatal("missing report outputs")
	}
}

func TestWildcardStressDeadlock(t *testing.T) {
	// Figure 10's test case: every rank posts Recv(ANY) with no sends →
	// wait-for graph of maximal size (p² arcs, counted as p(p-1) without
	// self-arcs).
	const p = 8
	res := Run(p, func(pr *mpisim.Proc) {
		pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
		pr.Finalize()
	}, cfg)
	if !res.Deadlock {
		t.Fatal("deadlock not detected")
	}
	if len(res.Deadlocked) != p {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
	if res.Arcs != p*(p-1) {
		t.Fatalf("arcs = %d, want %d", res.Arcs, p*(p-1))
	}
	if len(res.Conditions) != p || !strings.Contains(res.Conditions[0], "a send from ANY process") {
		t.Fatalf("rank 0 must wait in an unmatched wildcard recv: %q", res.Conditions[0])
	}
}

func TestSendSendPotentialDeadlockAfterCleanRun(t *testing.T) {
	// The 126.lammps case: buffered sends let the app finish, but the
	// strict blocking model (Sec. 3.3) reveals the send–send deadlock in a
	// final detection after the run.
	res := Run(2, func(pr *mpisim.Proc) {
		peer := 1 - pr.Rank()
		pr.Send([]byte{1}, peer, 0, trace.CommWorld)
		pr.Recv(peer, 0, trace.CommWorld)
		pr.Finalize()
	}, cfg)
	if res.AppAborted {
		t.Fatalf("app must complete cleanly: %v", res.AbortCause)
	}
	if !res.Deadlock || !res.PotentialOnly {
		t.Fatal("potential send-send deadlock not detected")
	}
	if len(res.Deadlocked) != 2 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
}

func TestFig2bManifestDeadlock(t *testing.T) {
	res := Run(3, fig2b, Options{FanIn: 2, Timeout: 30 * time.Millisecond, Rendezvous: true})
	if !res.Deadlock {
		t.Fatal("Figure 2(b) deadlock not detected")
	}
	if len(res.Deadlocked) != 3 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
}

func TestMissingBarrierDeadlock(t *testing.T) {
	const p = 4
	res := Run(p, func(pr *mpisim.Proc) {
		if pr.Rank() != 2 {
			pr.Barrier(trace.CommWorld)
		} else {
			pr.Recv(3, 9, trace.CommWorld) // never sent
		}
		pr.Finalize()
	}, cfg)
	if !res.Deadlock {
		t.Fatal("missing-barrier deadlock not detected")
	}
	// All four blocked: 3 in the barrier (waiting for 2), 2 in its recv.
	if len(res.Blocked) != p {
		t.Fatalf("blocked = %v", res.Blocked)
	}
}

func TestNonBlockingWaitallDeadlock(t *testing.T) {
	res := Run(2, func(pr *mpisim.Proc) {
		if pr.Rank() == 0 {
			r := pr.Irecv(1, 0, trace.CommWorld)
			pr.Wait(r) // rank 1 never sends
		} else {
			pr.Recv(0, 0, trace.CommWorld) // rank 0 never sends
		}
		pr.Finalize()
	}, cfg)
	if !res.Deadlock {
		t.Fatal("wait deadlock not detected")
	}
	if len(res.Deadlocked) != 2 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
}

func TestSubCommunicatorCleanRun(t *testing.T) {
	const p = 8
	res := Run(p, func(pr *mpisim.Proc) {
		sub := pr.CommSplit(trace.CommWorld, pr.Rank()%2, pr.Rank())
		group := pr.World().CommGroup(sub)
		n := len(group)
		gr := 0
		for i, r := range group {
			if r == pr.Rank() {
				gr = i
			}
		}
		for i := 0; i < 5; i++ {
			pr.Sendrecv([]byte{1}, (gr+1)%n, 0, (gr+n-1)%n, 0, sub)
			pr.Barrier(sub)
		}
		pr.Barrier(trace.CommWorld)
		pr.Finalize()
	}, cfg)
	if res.AbortCause != nil {
		t.Fatalf("app error: %v", res.AbortCause)
	}
	if res.Deadlock {
		t.Fatalf("false positive on sub-communicators: %v", res.Conditions)
	}
}

func TestSubCommunicatorDeadlock(t *testing.T) {
	const p = 4
	res := Run(p, func(pr *mpisim.Proc) {
		sub := pr.CommSplit(trace.CommWorld, pr.Rank()%2, pr.Rank())
		if pr.Rank() < 2 {
			pr.Barrier(sub) // even subgroup {0,2}: rank 0 joins...
		}
		if pr.Rank() == 2 {
			pr.Recv(0, 5, trace.CommWorld) // ...rank 2 receives instead
		}
		pr.Finalize()
	}, cfg)
	if !res.Deadlock {
		t.Fatal("sub-communicator deadlock not detected")
	}
}

// TestNoFalsePositivesRandomPrograms runs randomized deadlock-free programs
// and asserts the tool never reports a deadlock.
func TestNoFalsePositivesRandomPrograms(t *testing.T) {
	testseed.Run(t, 0, 6, func(t *testing.T, seed int64) {
		p := 4 + int(seed%3)*2
		res := Run(p, randomProgram(p, seed), Options{FanIn: 2, Timeout: 20 * time.Millisecond})
		if res.AbortCause != nil {
			t.Fatalf("seed %d: app error %v", seed, res.AbortCause)
		}
		if res.Deadlock {
			t.Fatalf("seed %d: false positive: ranks %v conditions %v",
				seed, res.Deadlocked, res.Conditions)
		}
	})
}

// randomProgram builds a deterministic deadlock-free program: a shared
// schedule of events (pairwise exchanges, collectives, nonblocking batches)
// derived from the seed; every rank executes its slice of the schedule.
func randomProgram(p int, seed int64) mpisim.Program {
	type ev struct {
		kind int // 0 pairwise exchange, 1 barrier, 2 allreduce, 3 nonblocking
		a, b int
		tag  int
		wild bool
	}
	rng := rand.New(rand.NewSource(seed))
	var events []ev
	n := 40 + rng.Intn(40)
	for i := 0; i < n; i++ {
		// Tags are unique per event so that wildcard-source receives cannot
		// race with sends of other events (which would make the program
		// genuinely deadlock-prone).
		switch rng.Intn(5) {
		case 0, 1:
			a := rng.Intn(p)
			b := rng.Intn(p - 1)
			if b >= a {
				b++
			}
			events = append(events, ev{kind: 0, a: a, b: b, tag: i, wild: rng.Float64() < 0.3})
		case 2:
			events = append(events, ev{kind: 1})
		case 3:
			events = append(events, ev{kind: 2})
		case 4:
			a := rng.Intn(p)
			b := rng.Intn(p - 1)
			if b >= a {
				b++
			}
			events = append(events, ev{kind: 3, a: a, b: b, tag: i, wild: rng.Float64() < 0.3})
		}
	}
	return func(pr *mpisim.Proc) {
		me := pr.Rank()
		for _, e := range events {
			switch e.kind {
			case 0:
				if me == e.a {
					pr.Send([]byte{9}, e.b, e.tag, trace.CommWorld)
				} else if me == e.b {
					src := e.a
					if e.wild {
						src = trace.AnySource
					}
					pr.Recv(src, e.tag, trace.CommWorld)
				}
			case 1:
				pr.Barrier(trace.CommWorld)
			case 2:
				pr.Allreduce([]byte{1, 0, 0, 0, 0, 0, 0, 0}, trace.CommWorld)
			case 3:
				if me == e.a {
					r := pr.Isend([]byte{7}, e.b, e.tag, trace.CommWorld)
					pr.Wait(r)
				} else if me == e.b {
					src := e.a
					if e.wild {
						src = trace.AnySource
					}
					r := pr.Irecv(src, e.tag, trace.CommWorld)
					pr.Wait(r)
				}
			}
		}
		pr.Barrier(trace.CommWorld)
		pr.Finalize()
	}
}
