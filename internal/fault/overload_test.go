package fault_test

// Overload chaos suite for the tool plane's resource governor: at the
// generous default budget, every verdict under link-fault chaos must be
// exactly the fault-free reference — governance is pure accounting;
// with a tiny budget or a stalled consumer, the tool must degrade honestly
// — bounded resident bytes, gated intake, counted overflow, an overloaded
// PARTIAL report — and never OOM, never hang, never drop silently.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// TestOverloadBudgetEquivalence is the headline governance property: the
// default budget is generous enough that governance is pure accounting —
// under link-fault chaos, every workload must reproduce the exact verdict
// of a fault-free reference run, with the high-water stats populated and
// no degradation.
func TestOverloadBudgetEquivalence(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(20)
	if testing.Short() {
		hi = 3
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := verdictOf(runBounded(t, c.procs, c.prog, must.Options{
				FanIn: c.fanIn, Timeout: 20 * time.Millisecond,
			}))
			if !ref.Deadlock {
				t.Fatal("reference run found no deadlock")
			}
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				rep := runBounded(t, c.procs, c.prog, must.Options{
					FanIn:     c.fanIn,
					Timeout:   20 * time.Millisecond,
					MemBudget: must.DefaultMemBudget,
					Fault: &must.FaultPlan{
						Seed: seed,
						Rules: []must.FaultRule{{
							Drop:      0.01,
							Dup:       0.01,
							Reorder:   0.01,
							JitterMax: 100 * time.Microsecond,
						}},
					},
				})
				if rep.Partial || rep.Overloaded {
					t.Fatalf("default budget degraded the run: partial=%v overloaded=%v overflow=%d",
						rep.Partial, rep.Overloaded, rep.OverflowEvents)
				}
				if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
					t.Fatalf("verdict diverged with governance on:\n got %+v\nwant %+v", got, ref)
				}
				if rep.MemBudget != must.DefaultMemBudget {
					t.Fatalf("report budget %d, want %d", rep.MemBudget, must.DefaultMemBudget)
				}
				if rep.MemHighWater <= 0 {
					t.Fatal("governed run reported no memory high water")
				}
				if rep.MemHighWater > must.DefaultMemBudget {
					t.Fatalf("high water %d exceeds budget without an overload flag", rep.MemHighWater)
				}
			})
		})
	}
}

// TestOverloadTinyBudgetDegradesHonestly starves the governor: a budget of
// a few KB forces the intake gate shut and drives tool-internal traffic
// over the limit. The run must still terminate with the full deadlock
// verdict — overflow is accounting, not dropping — and any overflow must
// surface as the overloaded PARTIAL flag pair, never silently.
func TestOverloadTinyBudgetDegradesHonestly(t *testing.T) {
	// A ring that churns before deadlocking, over links that crawl: the
	// churn must transit a tool plane allowed only a few KB of residency.
	prog := func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		for i := 0; i < 30; i++ {
			p.Sendrecv(mpi.Int64(int64(i)), right, 0, left, 0, mpi.CommWorld)
		}
		p.Recv(right, 99, mpi.CommWorld)
		p.Finalize()
	}
	for _, budget := range []int64{2 << 10, 16 << 10} {
		rep := runBounded(t, 8, mpi.Program(prog), must.Options{
			FanIn:     2,
			Timeout:   30 * time.Millisecond,
			LinkDelay: 2 * time.Millisecond,
			MemBudget: budget,
		})
		if !rep.Deadlock || len(rep.Deadlocked) != 8 {
			t.Fatalf("budget=%d: deadlock=%v deadlocked=%v (starvation must throttle, not lose events)",
				budget, rep.Deadlock, rep.Deadlocked)
		}
		if rep.GatedWaits == 0 && rep.OverflowEvents == 0 {
			t.Fatalf("budget=%d: no gated waits and no overflow — the tiny budget never bound", budget)
		}
		if rep.OverflowEvents > 0 && (!rep.Overloaded || !rep.Partial) {
			t.Fatalf("budget=%d: %d overflow events but overloaded=%v partial=%v",
				budget, rep.OverflowEvents, rep.Overloaded, rep.Partial)
		}
		if rep.Overloaded && rep.OverflowEvents == 0 {
			t.Fatalf("budget=%d: overloaded without overflow", budget)
		}
	}
}

// TestOverloadStalledConsumerBoundsMemory is the acceptance drill: a
// high-rate workload into first-layer links that crawl (per-message delay
// on every tool-internal pump — the slow-consumer stall). Without
// governance the queues soak up the whole event stream; with it, resident
// tool-plane bytes must stay inside the budget unless honestly flagged
// overloaded, the intake gate must have engaged, and the process heap must
// stay inside a modest envelope.
func TestOverloadStalledConsumerBoundsMemory(t *testing.T) {
	const budget = int64(64 << 10)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var hw uint64
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > hw {
				hw = ms.HeapAlloc
			}
			select {
			case <-stop:
				peak <- hw
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	rep := runBounded(t, 16, workload.Stress(200), must.Options{
		FanIn:     2,
		Timeout:   30 * time.Millisecond,
		EventBuf:  8,
		LinkDelay: 2 * time.Millisecond,
		MemBudget: budget,
	})
	close(stop)
	heapPeak := <-peak

	if rep.Err != nil {
		t.Fatalf("stalled-consumer run failed: %v", rep.Err)
	}
	if rep.Deadlock {
		t.Fatalf("governance invented a deadlock on a clean workload: %v", rep.Deadlocked)
	}
	if rep.GatedWaits == 0 {
		t.Fatal("the stall never engaged the intake gate — the drill exerted no pressure")
	}
	if rep.MemHighWater <= 0 {
		t.Fatal("no memory high water recorded under stall")
	}
	// The accounting invariant: residency beyond the budget is possible
	// only through counted overflow, which must flag the run overloaded.
	if rep.MemHighWater > budget && !rep.Overloaded {
		t.Fatalf("high water %d exceeds budget %d without the overloaded flag", rep.MemHighWater, budget)
	}
	// The whole point: a sub-megabyte budget must keep the tool plane's
	// heap footprint modest even though the ungoverned stream is much
	// larger. The envelope is generous (runtime pools, test harness) but
	// far below what soaking up the full stream would cost.
	if grew := int64(heapPeak) - int64(base.HeapAlloc); grew > 64<<20 {
		t.Fatalf("heap grew %d MiB under a stalled consumer (budget %d KiB)", grew>>20, budget>>10)
	}
}

// TestOverloadEventStorm floods the governed tree with a long high-rate
// run at the default budget: the storm must complete clean — no overload,
// no gating artifacts in the verdict — while the high-water stats show the
// storm actually moved real bytes.
func TestOverloadEventStorm(t *testing.T) {
	iters := 500
	if testing.Short() {
		iters = 100
	}
	rep := runBounded(t, 32, workload.Stress(iters), must.Options{
		FanIn:     4,
		Timeout:   30 * time.Millisecond,
		MemBudget: must.DefaultMemBudget,
	})
	if rep.Err != nil {
		t.Fatalf("event storm failed: %v", rep.Err)
	}
	if rep.Deadlock || rep.Partial || rep.Overloaded {
		t.Fatalf("storm at default budget degraded: deadlock=%v partial=%v overloaded=%v",
			rep.Deadlock, rep.Partial, rep.Overloaded)
	}
	if rep.MemHighWater <= 0 {
		t.Fatal("storm recorded no memory high water")
	}
	if len(rep.QueueBytesHW) == 0 {
		t.Fatal("storm recorded no per-class byte high waters")
	}
}

// TestOverloadAbortChurnLeaksNothing drives repeated overload-abort cycles
// — tiny-budget deadlock runs that end in app abort with the gate flapping
// — and checks the process returns to its goroutine baseline: governance
// must not strand gate waiters or pump goroutines across runs.
func TestOverloadAbortChurnLeaksNothing(t *testing.T) {
	opts := must.Options{
		FanIn:     2,
		Timeout:   20 * time.Millisecond,
		MemBudget: 2 << 10,
	}
	must.Run(8, workload.RecvRecvDeadlock(), opts) // warm-up: runtime pools grow once
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		rep := runBounded(t, 8, workload.RecvRecvDeadlock(), opts)
		if rep.Err != nil {
			t.Fatalf("churn run %d failed: %v", i, rep.Err)
		}
		if !rep.Deadlock {
			t.Fatalf("churn run %d lost the deadlock", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+2 {
		t.Fatalf("goroutines grew %d -> %d across overload-abort cycles", baseline, n)
	}
}

// TestWireTCPBackpressureDoesNotBreakDetection is the TCP port of the
// channel-transport backpressure test (must/agreement_test.go): tiny
// rank-event buffers plus the governed per-leaf wire window must throttle,
// not corrupt — a ring that churns then deadlocks is still fully detected,
// and the worker finals carry the governance accounting home.
func TestWireTCPBackpressureDoesNotBreakDetection(t *testing.T) {
	h := &tcpHarness{haltWorker: -1}
	rep := h.run(t, 8, func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		for i := 0; i < 30; i++ {
			p.Sendrecv(mpi.Int64(int64(i)), right, 0, left, 0, mpi.CommWorld)
		}
		p.Recv(right, 99, mpi.CommWorld)
		p.Finalize()
	}, must.Options{
		FanIn:     2,
		Timeout:   30 * time.Millisecond,
		EventBuf:  2,
		MemBudget: must.DefaultMemBudget,
	})
	if !rep.Deadlock || len(rep.Deadlocked) != 8 {
		t.Fatalf("deadlock=%v deadlocked=%v", rep.Deadlock, rep.Deadlocked)
	}
	if rep.Partial || rep.Overloaded {
		t.Fatalf("TCP backpressure degraded the run: partial=%v overloaded=%v", rep.Partial, rep.Overloaded)
	}
	if rep.MemHighWater <= 0 {
		t.Fatal("worker governance stats were not folded into the report")
	}
	for w, err := range h.workerErrs {
		if err != nil {
			t.Fatalf("worker %d exited with error: %v", w, err)
		}
	}
}
