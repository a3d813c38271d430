package session

import (
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"dwst/mpi"
)

func init() {
	// Tenant programs for the isolation drills. A registered workload is
	// exactly what a buggy API submission looks like to the service.
	RegisterWorkload("test:panic", func(int) mpi.Program {
		return func(p *mpi.Proc) {
			if p.Rank() == 1 {
				panic("tenant bug: nil map write")
			}
			p.Barrier(mpi.CommWorld)
			p.Finalize()
		}
	})
}

func quickSpec() Spec {
	return Spec{Workload: "recvrecv", Procs: 4, FanIn: 2, Timeout: Duration(10 * time.Millisecond)}
}

// foreverSpec runs until canceled: rank 0 stalls forever before its first
// MPI call (no watchdog), so the tool sees no deadlock and no completion.
func foreverSpec() Spec {
	return Spec{
		Workload: "clean", Procs: 2, Iters: 2, FanIn: 2,
		Timeout: Duration(10 * time.Millisecond),
		Fault:   &FaultSpec{RankStalls: "0:1:0"},
	}
}

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(0) })
	return svc
}

func TestSubmitRunVerdict(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Pool: 2, QueueDepth: 8})
	for _, mode := range []string{"distributed", "centralized"} {
		spec := quickSpec()
		spec.Mode = mode
		h, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.State != StateDone || out.Stats == nil || out.Stats.Verdict != "deadlock" || !out.Stats.Deadlock {
			t.Fatalf("%s: outcome = %+v, want done/deadlock", mode, out)
		}
	}
}

func TestSubmitRejectsInvalidSpecFast(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Pool: 1, QueueDepth: 2})
	if _, err := svc.Submit(Spec{Workload: "nope", Procs: 4}); err == nil {
		t.Fatal("invalid workload admitted")
	}
	if _, err := svc.Submit(Spec{Workload: "recvrecv", Procs: 0}); err == nil {
		t.Fatal("zero procs admitted")
	}
	svc2 := newTestService(t, ServiceConfig{Pool: 1, QueueDepth: 2, MaxProcs: 8})
	if _, err := svc2.Submit(Spec{Workload: "recvrecv", Procs: 64}); err == nil {
		t.Fatal("procs above server cap admitted")
	}
}

// The overload drill: with the pool saturated by never-finishing sessions
// and the queue full, further submissions must be rejected in bounded time
// with the typed error — a full server refuses work, it does not hang.
func TestOverloadShedsFastWithTypedError(t *testing.T) {
	const depth = 4
	svc := newTestService(t, ServiceConfig{Pool: 1, QueueDepth: depth, DefaultDeadline: time.Minute})

	for i := 0; i < depth; i++ {
		if _, err := svc.Submit(foreverSpec()); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	for i := 0; i < 10; i++ {
		start := time.Now()
		_, err := svc.Submit(quickSpec())
		elapsed := time.Since(start)
		var over *OverloadedError
		if !errors.As(err, &over) {
			t.Fatalf("submit %d on full server: err = %v, want *OverloadedError", i, err)
		}
		if over.QueueDepth != depth {
			t.Errorf("rejection reports depth %d, want %d", over.QueueDepth, depth)
		}
		if elapsed > time.Second {
			t.Fatalf("rejection took %v; load-shedding must not block", elapsed)
		}
	}
	if m := svc.Metrics(); m.Rejected != 10 || m.Pending != depth {
		t.Errorf("metrics rejected=%d pending=%d, want 10/%d", m.Rejected, m.Pending, depth)
	}

	// Draining one slot re-opens admission.
	if err := svc.Cancel(svc.List()[0].ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Submit(quickSpec()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never re-opened after canceling a session")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Per-session isolation: a tenant program that panics ends in
// internal_error while a neighbor session on the same pool completes
// normally — and the host process (this test) survives.
func TestPanicIsolatedToSession(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Pool: 2, QueueDepth: 8})
	bad, err := svc.Submit(Spec{Workload: "test:panic", Procs: 4, FanIn: 2, Timeout: Duration(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}

	badOut, err := bad.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if badOut.State != StateInternalError {
		t.Fatalf("panicking session state = %s (%q), want internal_error", badOut.State, badOut.Error)
	}
	goodOut, err := good.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if goodOut.State != StateDone || goodOut.Stats.Verdict != "deadlock" {
		t.Fatalf("neighbor session = %+v, want done/deadlock", goodOut)
	}
	if m := svc.Metrics(); m.Internal != 1 || m.Done != 1 {
		t.Errorf("metrics internal=%d done=%d, want 1/1", m.Internal, m.Done)
	}
}

// A stalling session is bounded by its deadline and classified canceled,
// with the deadline as the recorded cause.
func TestSessionDeadlineCancelsCleanly(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Pool: 1, QueueDepth: 4})
	spec := foreverSpec()
	spec.Deadline = Duration(150 * time.Millisecond)
	h, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := h.Wait(ctx)
	if err != nil {
		t.Fatal("session did not end by its deadline:", err)
	}
	if out.State != StateCanceled || out.Error != ErrDeadline.Error() {
		t.Fatalf("outcome = %s (%q), want canceled/%q", out.State, out.Error, ErrDeadline.Error())
	}
	if out.Stats == nil || !out.Stats.Interrupted {
		t.Errorf("deadline-canceled session should carry interrupted stats, got %+v", out.Stats)
	}
}

func TestExplicitCancel(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Pool: 1, QueueDepth: 4, DefaultDeadline: time.Minute})
	h, err := svc.Submit(foreverSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Also park one in the queue behind it: cancel must work pre-start too.
	queued, err := svc.Submit(foreverSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued session state after cancel = %s", st)
	}

	time.Sleep(50 * time.Millisecond) // let the first session actually start
	if err := svc.Cancel(h.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := h.Wait(ctx)
	if err != nil {
		t.Fatal("canceled session did not terminate:", err)
	}
	if out.State != StateCanceled {
		t.Fatalf("state = %s (%q), want canceled", out.State, out.Error)
	}
	if err := svc.Cancel(h.ID); err != nil {
		t.Errorf("canceling a terminal session should be a no-op, got %v", err)
	}
}

// openFDs counts this process's open file descriptors (-1 off procfs).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// The churn drill, mirroring must/leak_test.go: 100 sessions across
// done/canceled/failed/internal_error paths must return the process to its
// goroutine and FD baseline — per-session teardown may leak nothing.
func TestSessionChurnLeaksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("churn drill skipped in -short")
	}
	svc := newTestService(t, ServiceConfig{Pool: 4, QueueDepth: 128, DefaultDeadline: time.Minute})

	churn := func(n int) {
		handles := make([]*Session, 0, n)
		for i := 0; i < n; i++ {
			var spec Spec
			switch i % 4 {
			case 0:
				spec = quickSpec() // deadlock verdict
			case 1: // canceled mid-run
				spec = foreverSpec()
			case 2: // clean completion
				spec = Spec{Workload: "stress", Procs: 4, Iters: 3, FanIn: 2, Timeout: Duration(10 * time.Millisecond)}
			case 3: // tenant panic → internal_error
				spec = Spec{Workload: "test:panic", Procs: 4, FanIn: 2, Timeout: Duration(10 * time.Millisecond)}
			}
			h, err := svc.Submit(spec)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			handles = append(handles, h)
			if i%4 == 1 {
				go func(id string) {
					time.Sleep(20 * time.Millisecond)
					svc.Cancel(id)
				}(h.ID)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		for i, h := range handles {
			if _, err := h.Wait(ctx); err != nil {
				t.Fatalf("session %d (%s) never terminated: %v", i, h.ID, err)
			}
		}
	}

	churn(8) // warm-up: runtime pools grow once
	baseline := runtime.NumGoroutine()
	fdBase := openFDs()

	churn(100)

	var n int
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		n = runtime.NumGoroutine()
		if n <= baseline+4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline+4 {
		t.Fatalf("goroutines grew %d -> %d after 100-session churn", baseline, n)
	}
	if fdBase >= 0 {
		if fds := openFDs(); fds > fdBase+4 {
			t.Fatalf("open fds grew %d -> %d after 100-session churn", fdBase, fds)
		}
	}
	m := svc.Metrics()
	if m.Done+m.Canceled+m.Failed+m.Internal != 108 {
		t.Errorf("terminal sessions = %d done + %d canceled + %d failed + %d internal, want 108 total",
			m.Done, m.Canceled, m.Failed, m.Internal)
	}
}

// Close with a grace period lets in-flight fast sessions finish, then
// tears down stragglers — and afterwards every admitted session is
// terminal.
func TestCloseDrainsAndCancelsStragglers(t *testing.T) {
	svc, err := NewService(ServiceConfig{Pool: 2, QueueDepth: 8, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := svc.Submit(quickSpec())
	slow, _ := svc.Submit(foreverSpec())
	queuedSlow, _ := svc.Submit(foreverSpec())
	time.Sleep(100 * time.Millisecond) // both workers picked up their sessions

	done := make(chan struct{})
	go func() { svc.Close(time.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung")
	}

	if out := fast.Outcome(); out == nil || out.State != StateDone {
		t.Errorf("fast session after Close = %+v, want done", out)
	}
	for name, h := range map[string]*Session{"running": slow, "queued": queuedSlow} {
		out := h.Outcome()
		if out == nil || out.State != StateCanceled {
			t.Errorf("%s slow session after Close = %+v, want canceled", name, out)
		}
	}
	if _, err := svc.Submit(quickSpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: err = %v, want ErrClosed", err)
	}
}
