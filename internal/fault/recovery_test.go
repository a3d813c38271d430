package fault_test

// Recovery suite: the counterpart of the degraded-mode chaos tests. With
// FaultPlan.Recover set, a crashed first-layer tool node is respawned and
// rebuilt exactly — checkpoint restore plus deterministic journal replay,
// with the reliable transport migrating in-flight frames onto the
// replacement's links. The observable contract: the report of a run with
// first-layer crashes is IDENTICAL to the fault-free reference (same
// verdict, same deadlocked set, no Partial flag, zero Unknown ranks),
// instead of the honest degradation tested in chaos_test.go.

import (
	"reflect"
	"testing"
	"time"

	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/must"
)

// recoverPlan is the crash/recovery configuration shared by the suite.
func recoverPlan(seed int64, node int, after time.Duration) *must.FaultPlan {
	return &must.FaultPlan{
		Seed:    seed,
		Crashes: []must.Crash{{Layer: 0, Index: node, After: after}},
		Recover: true,
	}
}

// TestRecoveryFirstLayerCrashExactVerdict is the headline recovery
// property: across workloads, crash targets, and crash times, a run with
// Recover set must produce the exact fault-free verdict — never a partial
// report, never an unknown rank. With MUST_CHAOS_RUNS unset this executes
// 3 workloads x 70 seeds = 210 crash-recovery runs.
func TestRecoveryFirstLayerCrashExactVerdict(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(70)
	if testing.Short() {
		hi = 4
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := verdictOf(runBounded(t, c.procs, c.prog, must.Options{FanIn: c.fanIn, Timeout: 20 * time.Millisecond}))
			if !ref.Deadlock {
				t.Fatalf("reference run found no deadlock")
			}
			firstLayer := (c.procs + c.fanIn - 1) / c.fanIn
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				// Vary the victim and the crash time per seed; the crash
				// always lands before the first quiescence trigger (20ms),
				// exercising different points of the matching protocol.
				node := int(seed) % firstLayer
				after := time.Duration(5+seed%10) * time.Millisecond
				rep := runBounded(t, c.procs, c.prog, must.Options{
					FanIn:            c.fanIn,
					Timeout:          20 * time.Millisecond,
					SnapshotDeadline: 500 * time.Millisecond,
					Fault:            recoverPlan(seed, node, after),
				})
				if rep.Partial {
					t.Fatalf("recovered crash must not degrade the report (unknown ranks %v)", rep.UnknownRanks)
				}
				if len(rep.UnknownRanks) != 0 {
					t.Fatalf("unknown ranks %v after recovery", rep.UnknownRanks)
				}
				// A potential-only workload (fig2b under buffered sends)
				// completes on its own; if the app outran the crash timer
				// there is nothing to recover and the run is simply
				// fault-free. Recovery is mandatory only when the crash
				// landed inside the app's lifetime.
				if rep.Recoveries < 1 && rep.Elapsed >= after {
					t.Fatalf("crash of node %d at %v was never recovered (recoveries=0, app ran %v)",
						node, after, rep.Elapsed)
				}
				if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
					t.Fatalf("verdict diverged after recovery (node %d, after %v):\n got %+v\nwant %+v", node, after, got, ref)
				}
			})
		})
	}
}

// TestRecoveryWithLinkFaults layers recovery on top of the headline chaos
// property: drop+dup+reorder on every link AND a first-layer crash, still
// the exact fault-free verdict.
func TestRecoveryWithLinkFaults(t *testing.T) {
	hi := testseed.ChaosRuns(20)
	if testing.Short() {
		hi = 2
	}
	prog := workload.RecvRecvDeadlock()
	ref := verdictOf(runBounded(t, 8, prog, must.Options{FanIn: 2, Timeout: 20 * time.Millisecond}))
	testseed.Run(t, 0, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		plan := recoverPlan(seed, int(seed)%4, time.Duration(5+seed%10)*time.Millisecond)
		plan.Rules = []must.FaultRule{{
			Drop:      0.01,
			Dup:       0.01,
			Reorder:   0.01,
			JitterMax: 100 * time.Microsecond,
		}}
		rep := runBounded(t, 8, prog, must.Options{
			FanIn:            2,
			Timeout:          20 * time.Millisecond,
			SnapshotDeadline: 500 * time.Millisecond,
			Fault:            plan,
		})
		if rep.Partial || len(rep.UnknownRanks) != 0 {
			t.Fatalf("recovered crash under link faults degraded the report (unknown %v)", rep.UnknownRanks)
		}
		if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
			t.Fatalf("verdict diverged:\n got %+v\nwant %+v", got, ref)
		}
	})
}

// TestRecoveryRepeatedCrashes kills the same first-layer slot twice: the
// second incarnation's replacement replays the journal the first two
// incarnations wrote (the post-recovery checkpoint keeps the second replay
// short). The verdict must still be exact.
func TestRecoveryRepeatedCrashes(t *testing.T) {
	prog := workload.RecvRecvDeadlock()
	ref := verdictOf(runBounded(t, 8, prog, must.Options{FanIn: 2, Timeout: 20 * time.Millisecond}))
	plan := recoverPlan(1, 0, 10*time.Millisecond)
	plan.Crashes = append(plan.Crashes, must.Crash{Layer: 0, Index: 0, After: 500 * time.Millisecond})
	rep := runBounded(t, 8, prog, must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 500 * time.Millisecond,
		Fault:            plan,
	})
	if rep.Partial || len(rep.UnknownRanks) != 0 {
		t.Fatalf("repeated crashes degraded the report (unknown %v)", rep.UnknownRanks)
	}
	if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
		t.Fatalf("verdict diverged after repeated crashes:\n got %+v\nwant %+v", got, ref)
	}
}

// TestRecoveryRequiresTransport: Recover is gated on the reliable link
// layer — with retransmission disabled the journal cannot guarantee
// exactly-once input capture, so the tool must fall back to honest
// degradation rather than pretend to recover.
func TestRecoveryRequiresTransport(t *testing.T) {
	rep := runBounded(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:   2,
		Timeout: 20 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:              1,
			Crashes:           []must.Crash{{Layer: 0, Index: 1, After: 15 * time.Millisecond}},
			Recover:           true,
			DisableRetransmit: true,
		},
	})
	if rep.Recoveries != 0 {
		t.Fatalf("recovery must be disabled without the reliable transport (got %d recoveries)", rep.Recoveries)
	}
	if !rep.Partial {
		t.Fatal("without recovery a first-layer crash must degrade the report")
	}
	want := []int{2, 3}
	if !reflect.DeepEqual(rep.UnknownRanks, want) {
		t.Fatalf("unknown ranks %v, want %v", rep.UnknownRanks, want)
	}
}

// TestRecoveryJournalBounded is the memory-bound witness: a long
// deadlock-free run (>= 10k events per rank) with journaling active must
// keep the live journal suffix near the checkpoint cap — proportional to
// outstanding work, not to run length.
func TestRecoveryJournalBounded(t *testing.T) {
	iters := 3000 // ~4 events per Sendrecv + barriers: >= 10k events/rank
	if testing.Short() {
		iters = 300
	}
	rep := runBounded(t, 8, workload.Stress(iters), must.Options{
		FanIn:   4,
		Timeout: 20 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:    1,
			Rules:   []must.FaultRule{{JitterMax: 10 * time.Microsecond}},
			Recover: true,
		},
	})
	if rep.Deadlock || rep.Partial {
		t.Fatalf("clean stress run misreported: deadlock=%v partial=%v", rep.Deadlock, rep.Partial)
	}
	if rep.JournalHighWater == 0 {
		t.Fatal("journaling was not active (high water 0)")
	}
	// Default cap 512 plus slack for inputs accepted while a checkpoint is
	// refused (frozen during a snapshot epoch). The race scheduler keeps
	// leaves frozen far longer, so the freeze-slack term grows with it;
	// either bound is still a tiny fraction of the ~50k inputs journaled.
	bound := 2048
	if raceDetector {
		bound = 12288
	}
	if rep.JournalHighWater > bound {
		t.Fatalf("journal high water %d not bounded by the checkpoint policy", rep.JournalHighWater)
	}
	t.Logf("journal high water %d after %d iters/rank", rep.JournalHighWater, iters)
}

// TestRecoveryJournalCapOption: an explicit JournalCap tightens the bound.
func TestRecoveryJournalCapOption(t *testing.T) {
	rep := runBounded(t, 8, workload.Stress(500), must.Options{
		FanIn:   4,
		Timeout: 20 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:       1,
			Recover:    true,
			JournalCap: 64,
		},
	})
	if rep.Deadlock || rep.Partial {
		t.Fatalf("clean stress run misreported: deadlock=%v partial=%v", rep.Deadlock, rep.Partial)
	}
	if rep.JournalHighWater == 0 || rep.JournalHighWater > 512 {
		t.Fatalf("journal high water %d ignores JournalCap=64", rep.JournalHighWater)
	}
}

// TestRecoveryDegradedDefaultUnchanged pins the opt-in: a plan that merely
// schedules crashes (no Recover) must keep the pre-recovery degradation
// semantics byte for byte — the library default is unchanged.
func TestRecoveryDegradedDefaultUnchanged(t *testing.T) {
	rep := runBounded(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:   2,
		Timeout: 20 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:    1,
			Crashes: []must.Crash{{Layer: 0, Index: 2, After: 15 * time.Millisecond}},
		},
	})
	if rep.Recoveries != 0 {
		t.Fatalf("recovery ran without opt-in (%d recoveries)", rep.Recoveries)
	}
	if !rep.Partial || !reflect.DeepEqual(rep.UnknownRanks, []int{4, 5}) {
		t.Fatalf("degradation default changed: partial=%v unknown=%v", rep.Partial, rep.UnknownRanks)
	}
}

// TestRecoveryStatsPopulated sanity-checks the new counters end to end on
// one recovered run (the values feed mustrun's -stats-json).
func TestRecoveryStatsPopulated(t *testing.T) {
	rep := runBounded(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 500 * time.Millisecond,
		Fault:            recoverPlan(1, 0, 10*time.Millisecond),
	})
	if rep.Recoveries < 1 {
		t.Fatalf("expected at least one recovery, got %d", rep.Recoveries)
	}
	if rep.ReplayedMsgs == 0 {
		t.Error("recovery replayed no journal entries — replay path not exercised")
	}
	if rep.ReplayTime <= 0 {
		t.Error("replay time not measured")
	}
	if rep.JournalHighWater == 0 {
		t.Error("journal high water not collected")
	}
	if rep.Partial {
		t.Errorf("recovered run flagged partial (unknown %v)", rep.UnknownRanks)
	}
	t.Logf("recoveries=%d replayed=%d replay=%v journal-hw=%d",
		rep.Recoveries, rep.ReplayedMsgs, rep.ReplayTime, rep.JournalHighWater)
}
