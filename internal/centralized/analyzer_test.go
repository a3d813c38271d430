package centralized

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dwst/internal/event"
	"dwst/internal/mpisim"
	"dwst/internal/trace"
	"dwst/internal/workload"
	"dwst/mpi"
)

// recordRun executes a program with a recording sink and returns the trace.
func recordRun(t *testing.T, procs int, prog mpisim.Program) (int, []event.Event) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := event.NewRecorder(&buf, procs)
	if err != nil {
		t.Fatal(err)
	}
	w := mpisim.NewWorld(mpisim.Config{
		Procs: procs, Sink: rec, HangTimeout: 100 * time.Millisecond,
	})
	_ = w.Run(prog) // hangs are fine: the watchdog aborts, trace is partial
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	p, evs, err := event.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return p, evs
}

func TestAnalyzerFindsPotentialDeadlockOffline(t *testing.T) {
	p, evs := recordRun(t, 2, func(pr *mpisim.Proc) {
		peer := 1 - pr.Rank()
		pr.Send(nil, peer, 0, trace.CommWorld) // buffered: run completes
		pr.Recv(peer, 0, trace.CommWorld)
		pr.Finalize()
	})
	a := NewAnalyzer(p)
	a.FeedAll(evs)
	res := a.Detect()
	if !res.Deadlock || len(res.Deadlocked) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.HTML.String() == "" || res.DOT.String() == "" {
		t.Fatal("outputs missing")
	}
}

func TestAnalyzerCleanTrace(t *testing.T) {
	p, evs := recordRun(t, 4, func(pr *mpisim.Proc) {
		right := (pr.Rank() + 1) % 4
		left := (pr.Rank() + 3) % 4
		for i := 0; i < 10; i++ {
			pr.Sendrecv(nil, right, 0, left, 0, trace.CommWorld)
			pr.Barrier(trace.CommWorld)
		}
		pr.Finalize()
	})
	a := NewAnalyzer(p)
	a.FeedAll(evs)
	res := a.Detect()
	if res.Deadlock {
		t.Fatalf("false positive: %+v", res)
	}
	// The wait-state simulation must have consumed the whole trace.
	for r, l := range a.Progress() {
		if l == 0 {
			t.Fatalf("rank %d never advanced", r)
		}
	}
}

// TestAnalyzerMatchesRun: offline analysis of a recorded trace reports what
// the online tool reports on the same program, groups and conditions
// included.
func TestAnalyzerMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		prog  mpi.Program
	}{
		{"recvrecv", 4, workload.RecvRecvDeadlock()},
		{"fig2b", 3, workload.Fig2b()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := Run(cfg(tc.procs), simProgram(tc.prog))
			p, evs := recordRun(t, tc.procs, simProgram(tc.prog))
			a := NewAnalyzer(p)
			a.FeedAll(evs)
			off := a.Detect()
			if !live.Deadlock || !off.Deadlock {
				t.Fatalf("deadlock: live %v, offline %v", live.Deadlock, off.Deadlock)
			}
			for _, f := range []struct {
				name        string
				live, offln any
			}{
				{"deadlocked", live.Deadlocked, off.Deadlocked},
				{"cycle", live.Cycle, off.Cycle},
				{"groups", live.Groups, off.Groups},
				{"conditions", live.Conditions, off.Conditions},
			} {
				if !reflect.DeepEqual(f.live, f.offln) {
					t.Errorf("%s: live %v, offline %v", f.name, f.live, f.offln)
				}
			}
		})
	}
}

func TestAnalyzerPartialTraceFromHungRun(t *testing.T) {
	// A real recv-recv deadlock: the recording run hangs and is cut off by
	// the watchdog; offline analysis still pinpoints the deadlock.
	p, evs := recordRun(t, 2, func(pr *mpisim.Proc) {
		peer := 1 - pr.Rank()
		pr.Recv(peer, 0, trace.CommWorld)
		pr.Send(nil, peer, 0, trace.CommWorld)
		pr.Finalize()
	})
	a := NewAnalyzer(p)
	a.FeedAll(evs)
	res := a.Detect()
	if !res.Deadlock || len(res.Deadlocked) != 2 {
		t.Fatalf("res = %+v", res)
	}
}
