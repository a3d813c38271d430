package centralized

import (
	"testing"
	"time"

	"dwst/internal/mpisim"
	"dwst/internal/trace"
)

func cfg(p int) Config {
	return Config{Procs: p, Timeout: 30 * time.Millisecond}
}

func TestCleanRun(t *testing.T) {
	const p = 6
	res := Run(cfg(p), func(pr *mpisim.Proc) {
		right := (pr.Rank() + 1) % p
		left := (pr.Rank() + p - 1) % p
		for i := 0; i < 15; i++ {
			pr.Sendrecv([]byte{1}, right, 0, left, 0, trace.CommWorld)
			if i%5 == 0 {
				pr.Barrier(trace.CommWorld)
			}
		}
		pr.Finalize()
	})
	if res.AppErr != nil || res.Deadlock {
		t.Fatalf("clean run: err=%v deadlock=%v (deadlocked=%v)", res.AppErr, res.Deadlock, res.Deadlocked)
	}
	if res.TraceOps == 0 {
		t.Fatal("centralized tool must retain the trace")
	}
}

func TestRecvRecvDeadlock(t *testing.T) {
	res := Run(cfg(2), func(pr *mpisim.Proc) {
		peer := 1 - pr.Rank()
		pr.Recv(peer, 0, trace.CommWorld)
		pr.Send(nil, peer, 0, trace.CommWorld)
		pr.Finalize()
	})
	if !res.Deadlock || len(res.Deadlocked) != 2 {
		t.Fatalf("deadlock=%v deadlocked=%v", res.Deadlock, res.Deadlocked)
	}
	if res.HTML.String() == "" || res.DOT.String() == "" {
		t.Fatal("missing outputs")
	}
}

func TestWildcardStressDeadlock(t *testing.T) {
	const p = 6
	res := Run(cfg(p), func(pr *mpisim.Proc) {
		pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
		pr.Finalize()
	})
	if !res.Deadlock || len(res.Deadlocked) != p {
		t.Fatalf("deadlock=%v deadlocked=%v", res.Deadlock, res.Deadlocked)
	}
}

func TestPotentialSendSendDeadlock(t *testing.T) {
	res := Run(cfg(2), func(pr *mpisim.Proc) {
		peer := 1 - pr.Rank()
		pr.Send([]byte{1}, peer, 0, trace.CommWorld)
		pr.Recv(peer, 0, trace.CommWorld)
		pr.Finalize()
	})
	if res.AppErr != nil {
		t.Fatalf("app must finish cleanly: %v", res.AppErr)
	}
	if !res.Deadlock {
		t.Fatal("potential send-send deadlock not detected after the run")
	}
}

func TestUnexpectedMatchReported(t *testing.T) {
	// Figure 4: non-synchronizing reduce lets process 2's late send match
	// the first wildcard receive. The centralized tool's strict model gets
	// stuck and flags the unexpected match. Retry until the racy
	// interleaving occurs.
	for trial := 0; trial < 30; trial++ {
		res := Run(cfg(3), func(pr *mpisim.Proc) {
			switch pr.Rank() {
			case 0:
				time.Sleep(2 * time.Millisecond) // yield so rank 2 sends first
				pr.Send([]byte{0}, 1, 0, trace.CommWorld)
				pr.Reduce(nil, 1, trace.CommWorld)
			case 1:
				pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
				pr.Reduce(nil, 1, trace.CommWorld)
				pr.Recv(trace.AnySource, trace.AnyTag, trace.CommWorld)
			case 2:
				pr.Reduce(nil, 1, trace.CommWorld)
				pr.Send([]byte{2}, 1, 0, trace.CommWorld)
			}
			pr.Finalize()
		})
		if res.Deadlock && res.Unexpected > 0 {
			return
		}
	}
	t.Fatal("never observed the unexpected-match interleaving")
}
