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
	"fmt"
	"reflect"
	"testing"
	"time"

	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/must"
)

// recoverPlan is the crash/recovery configuration shared by the suite:
// first-layer node crashes after dispatching after envelopes.
func recoverPlan(seed int64, node, after int) *must.FaultPlan {
	return &must.FaultPlan{
		Seed:    seed,
		Crashes: []must.Crash{{Layer: 0, Index: node, AfterEnvelopes: after}},
		Recover: true,
	}
}

// runRecovered runs c with one planned crash of node after the given
// envelope count and asserts the crash landed and was recovered exactly:
// one recovery, no partial report, no unknown rank, the reference verdict.
func runRecovered(t *testing.T, c chaosCase, ref verdict, seed int64, node, after int) {
	t.Helper()
	rep := runBounded(t, c.procs, c.prog, must.Options{
		FanIn:            c.fanIn,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 500 * time.Millisecond,
		Fault:            recoverPlan(seed, node, after),
	})
	if rep.Recoveries != 1 {
		t.Fatalf("crash of node %d after %d envelopes: %d recoveries, want 1", node, after, rep.Recoveries)
	}
	if rep.Partial || len(rep.UnknownRanks) != 0 {
		t.Fatalf("recovered crash must not degrade the report (unknown ranks %v)", rep.UnknownRanks)
	}
	if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
		t.Fatalf("verdict diverged after recovery (node %d, after %d envelopes):\n got %+v\nwant %+v", node, after, got, ref)
	}
}

// TestRecoveryFirstLayerCrashExactVerdict is the headline recovery
// property: across workloads, crash targets, and crash points, a run with
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
			events := rankEvents(c)
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				// Vary the victim and the crash point per seed, within the
				// events its ranks emit, so the crash always lands.
				node := int(seed) % len(events)
				after := 1 + int(seed)/len(events)%events[node]
				runRecovered(t, c, ref, seed, node, after)
			})
		})
	}
}

// TestRecoveryCrashPointSweep crashes every first-layer node of every
// chaos workload at every envelope count its ranks' events reach, one
// crash per run: each is recovered to the exact reference verdict. A
// wrong verdict here names the crash point that produces it.
func TestRecoveryCrashPointSweep(t *testing.T) {
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := verdictOf(runBounded(t, c.procs, c.prog, must.Options{FanIn: c.fanIn, Timeout: 20 * time.Millisecond}))
			for node, events := range rankEvents(c) {
				if events == 0 {
					t.Fatalf("node %d hosts ranks that emit no events", node)
				}
				for after := 1; after <= events; after++ {
					t.Run(fmt.Sprintf("node=%d/after=%d", node, after), func(t *testing.T) {
						t.Parallel()
						runRecovered(t, c, ref, 1, node, after)
					})
				}
			}
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
		// recvrecv's ranks emit two events per node: the crash lands.
		plan := recoverPlan(seed, int(seed)%4, 1+int(seed/4)%2)
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
		if rep.Recoveries != 1 {
			t.Fatalf("%d recoveries, want 1", rep.Recoveries)
		}
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
// short). Each incarnation dies after its first envelope; the second
// always takes one, a rank event or the detection's request. The verdict
// must still be exact.
func TestRecoveryRepeatedCrashes(t *testing.T) {
	prog := workload.RecvRecvDeadlock()
	ref := verdictOf(runBounded(t, 8, prog, must.Options{FanIn: 2, Timeout: 20 * time.Millisecond}))
	plan := recoverPlan(1, 0, 1)
	plan.Crashes = append(plan.Crashes, must.Crash{Layer: 0, Index: 0, AfterEnvelopes: 1})
	rep := runBounded(t, 8, prog, must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 500 * time.Millisecond,
		Fault:            plan,
	})
	if rep.Recoveries != 2 {
		t.Fatalf("%d recoveries, want 2", rep.Recoveries)
	}
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
			Crashes:           []must.Crash{{Layer: 0, Index: 1, AfterEnvelopes: 2}},
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
			Crashes: []must.Crash{{Layer: 0, Index: 2, AfterEnvelopes: 2}},
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
		Fault:            recoverPlan(1, 0, 2),
	})
	if rep.Recoveries != 1 {
		t.Fatalf("expected one recovery, got %d", rep.Recoveries)
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
