package fault_test

// Application-plane chaos: crash and stall MPI ranks (optionally while the
// link-fault plane is also active) and check the tool classifies the
// outcome correctly — DeadlockByFailure naming the dead rank and the ranks
// transitively blocked on it, Stalled for a watchdog fire, and a clean
// verdict when a transient stall resolves on its own.

import (
	"strings"
	"testing"
	"time"

	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/must"
)

// TestChaosRankCrashYieldsDeadlockByFailure crashes one rank (chosen by
// the seed) early in a deadlock-free workload. The verdict must be
// deadlock-by-failure, name exactly the crashed rank, and report a
// non-empty transitively-blocked set that is part of the deadlocked set.
func TestChaosRankCrashYieldsDeadlockByFailure(t *testing.T) {
	const procs = 8
	lo, hi := int64(0), testseed.ChaosRuns(24)
	if testing.Short() {
		hi = 4
	}
	testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		rank := int(seed) % procs
		atCall := 1 + int(seed/int64(procs))%3
		rep := runBounded(t, procs, workload.Stress(5), must.Options{
			FanIn:   2,
			Timeout: 20 * time.Millisecond,
			Fault: &must.FaultPlan{
				Seed:        seed,
				RankCrashes: []must.RankCrash{{Rank: rank, AtCall: atCall}},
			},
		})
		if rep.Verdict != must.VerdictDeadlockByFailure {
			t.Fatalf("verdict = %v, want deadlock-by-failure (dead %v)", rep.Verdict, rep.DeadRanks)
		}
		if len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != rank {
			t.Fatalf("dead ranks = %v, want [%d]", rep.DeadRanks, rank)
		}
		if lc := rep.DeadLastCalls[rank]; lc != atCall-1 {
			t.Fatalf("rank %d last call = %d, want %d (crash-at-call %d)", rank, lc, atCall-1, atCall)
		}
		if len(rep.FailureBlocked) == 0 {
			t.Fatalf("no ranks reported transitively blocked on the failure")
		}
		dead := map[int]bool{}
		for _, d := range rep.Deadlocked {
			dead[d] = true
		}
		for _, b := range rep.FailureBlocked {
			if b == rank {
				t.Fatalf("crashed rank %d listed in its own transitively-blocked set %v", rank, rep.FailureBlocked)
			}
			if !dead[b] {
				t.Fatalf("failure-blocked rank %d not in deadlocked set %v", b, rep.Deadlocked)
			}
		}
		if !dead[rank] {
			t.Fatalf("crashed rank %d missing from deadlocked set %v", rank, rep.Deadlocked)
		}
		if !strings.Contains(rep.HTML.String(), "DEADLOCK BY FAILURE") {
			t.Fatal("HTML report lacks the deadlock-by-failure section")
		}
		if rep.Partial {
			t.Fatalf("an application crash is not tool degradation (unknown %v)", rep.UnknownRanks)
		}
	})
}

// TestChaosRankStallWatchdog stalls one rank forever. With the watchdog
// enabled the run must end with a Stalled verdict naming the rank, and no
// deadlock (the stalled rank is alive, not blocked in MPI).
func TestChaosRankStallWatchdog(t *testing.T) {
	for _, rank := range []int{0, 3} {
		rank := rank
		t.Run(map[int]string{0: "rank0", 3: "rank3"}[rank], func(t *testing.T) {
			t.Parallel()
			rep := runBounded(t, 4, workload.Stress(5), must.Options{
				FanIn:         2,
				Timeout:       20 * time.Millisecond,
				WatchdogQuiet: 100 * time.Millisecond,
				Fault: &must.FaultPlan{
					Seed:       1,
					RankStalls: []must.RankStall{{Rank: rank, AtCall: 3}},
				},
			})
			if rep.Verdict != must.VerdictStalled {
				t.Fatalf("verdict = %v, want stalled", rep.Verdict)
			}
			found := false
			for _, r := range rep.StalledRanks {
				if r == rank {
					found = true
				}
			}
			if !found {
				t.Fatalf("stalled ranks = %v, want to include %d", rep.StalledRanks, rank)
			}
			if rep.Deadlock {
				t.Fatalf("stall misclassified as deadlock (ranks %v)", rep.Deadlocked)
			}
			if rep.WatchdogFires < 1 {
				t.Fatalf("watchdog fires = %d, want >= 1", rep.WatchdogFires)
			}
		})
	}
}

// TestChaosBusyStallWatchdog is the livelock variant: the rank spins on
// CPU instead of sleeping. The watchdog must classify it identically.
func TestChaosBusyStallWatchdog(t *testing.T) {
	rep := runBounded(t, 4, workload.Stress(5), must.Options{
		FanIn:         2,
		Timeout:       20 * time.Millisecond,
		WatchdogQuiet: 100 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:       1,
			RankStalls: []must.RankStall{{Rank: 1, AtCall: 2, Busy: true}},
		},
	})
	if rep.Verdict != must.VerdictStalled {
		t.Fatalf("verdict = %v, want stalled", rep.Verdict)
	}
	if rep.Deadlock {
		t.Fatalf("livelock misclassified as deadlock (ranks %v)", rep.Deadlocked)
	}
}

// TestChaosTransientStallIsInvisible stalls a rank briefly with the
// watchdog disabled: the rank resumes and the run must be completely
// clean — no deadlock, no stall verdict, no degraded report.
func TestChaosTransientStallIsInvisible(t *testing.T) {
	rep := runBounded(t, 4, workload.Stress(5), must.Options{
		FanIn:   2,
		Timeout: 20 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:       1,
			RankStalls: []must.RankStall{{Rank: 2, AtCall: 3, For: 60 * time.Millisecond}},
		},
	})
	if rep.Deadlock {
		t.Fatalf("transient stall misreported as deadlock (ranks %v)", rep.Deadlocked)
	}
	if rep.Verdict != must.VerdictNone {
		t.Fatalf("verdict = %v, want none", rep.Verdict)
	}
	if len(rep.StalledRanks) != 0 || rep.WatchdogFires != 0 {
		t.Fatalf("disabled watchdog still fired: stalled %v fires %d", rep.StalledRanks, rep.WatchdogFires)
	}
	if rep.Partial || rep.AppAborted {
		t.Fatalf("transient stall degraded the run: partial=%v aborted=%v", rep.Partial, rep.AppAborted)
	}
}

// TestChaosMixedRankAndLinkFaults is the combined plane: a rank crash
// while every tool link drops, duplicates and reorders messages. The
// retransmitting transport must still deliver the exact failure verdict —
// same dead rank, a consistent blocked set, never a partial report.
func TestChaosMixedRankAndLinkFaults(t *testing.T) {
	const procs = 8
	lo, hi := int64(0), testseed.ChaosRuns(24)
	if testing.Short() {
		hi = 4
	}
	testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		rank := int(seed) % procs
		rep := runBounded(t, procs, workload.Stress(5), must.Options{
			FanIn:   2,
			Timeout: 20 * time.Millisecond,
			Fault: &must.FaultPlan{
				Seed:        seed,
				RankCrashes: []must.RankCrash{{Rank: rank, AtCall: 2}},
				Rules: []must.FaultRule{{
					Drop:      0.01,
					Dup:       0.01,
					Reorder:   0.01,
					JitterMax: 100 * time.Microsecond,
				}},
			},
		})
		if rep.Partial {
			t.Fatalf("link faults must stay invisible under a rank crash (unknown %v)", rep.UnknownRanks)
		}
		if rep.Verdict != must.VerdictDeadlockByFailure {
			t.Fatalf("verdict = %v, want deadlock-by-failure", rep.Verdict)
		}
		if len(rep.DeadRanks) != 1 || rep.DeadRanks[0] != rank {
			t.Fatalf("dead ranks = %v, want [%d]", rep.DeadRanks, rank)
		}
		if len(rep.FailureBlocked) == 0 {
			t.Fatal("no ranks reported transitively blocked on the failure")
		}
	})
}

// TestChaosRankFaultFreeStillClean re-runs a fault-free configuration of
// the same workload under many seeds: with no rank faults scheduled and no
// link rules, the new fault plumbing must leave the verdict untouched.
func TestChaosRankFaultFreeStillClean(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(12)
	if testing.Short() {
		hi = 3
	}
	testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		rep := runBounded(t, 8, workload.Stress(5), must.Options{
			FanIn:   2,
			Timeout: 20 * time.Millisecond,
			Fault:   &must.FaultPlan{Seed: seed},
		})
		if rep.Deadlock || rep.Verdict != must.VerdictNone {
			t.Fatalf("fault-free run not clean: deadlock=%v verdict=%v", rep.Deadlock, rep.Verdict)
		}
		if len(rep.DeadRanks) != 0 || len(rep.StalledRanks) != 0 {
			t.Fatalf("phantom faults reported: dead %v stalled %v", rep.DeadRanks, rep.StalledRanks)
		}
	})
}
