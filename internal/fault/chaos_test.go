package fault_test

// Chaos suite: run real workloads through the full distributed tool while
// the fault plane drops, duplicates, reorders and delays tool-link
// messages, and crashes tool nodes. The reliable link layer and the
// snapshot-epoch machinery must make every injected fault invisible — the
// reported verdict and deadlocked set must equal a fault-free reference
// run — except for first-layer crashes, which must surface as an honest
// partial report instead.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dwst/internal/dws"
	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// runBounded runs the tool under a watchdog: a hung run (lost control
// message, undetected crash, livelocked retry loop) fails the test
// instead of stalling the whole suite.
func runBounded(t *testing.T, procs int, prog mpi.Program, opts must.Options) *must.Report {
	t.Helper()
	done := make(chan *must.Report, 1)
	go func() { done <- must.Run(procs, prog, opts) }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(30 * time.Second):
		t.Fatal("tool run hung under fault injection")
		return nil
	}
}

type chaosCase struct {
	name  string
	procs int
	fanIn int
	prog  mpi.Program
}

func chaosCases() []chaosCase {
	return []chaosCase{
		{"recvrecv", 8, 2, workload.RecvRecvDeadlock()},
		{"fig2b", 3, 2, workload.Fig2b()},
		{"wildcard", 8, 4, workload.WildcardDeadlock()},
	}
}

// verdict is the part of a report that faults must never change.
type verdict struct {
	Deadlock      bool
	PotentialOnly bool
	Deadlocked    []int
}

func verdictOf(rep *must.Report) verdict {
	return verdict{rep.Deadlock, rep.PotentialOnly, append([]int(nil), rep.Deadlocked...)}
}

// TestChaosLinkFaultsPreserveVerdict is the headline chaos property: with
// drop+dup+reorder+jitter on every tool link, the retransmitting transport
// must deliver the exact fault-free verdict, never a partial report.
func TestChaosLinkFaultsPreserveVerdict(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(60)
	if testing.Short() {
		hi = 6
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := verdictOf(runBounded(t, c.procs, c.prog, must.Options{FanIn: c.fanIn, Timeout: 20 * time.Millisecond}))
			if !ref.Deadlock {
				t.Fatalf("reference run found no deadlock")
			}
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				rep := runBounded(t, c.procs, c.prog, must.Options{
					FanIn:   c.fanIn,
					Timeout: 20 * time.Millisecond,
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
				if rep.Partial {
					t.Fatalf("link faults alone must never degrade the report (unknown ranks %v)", rep.UnknownRanks)
				}
				if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
					t.Fatalf("verdict diverged under faults:\n got %+v\nwant %+v", got, ref)
				}
			})
		})
	}
}

// TestChaosHeavierFaultsStillConverge pushes per-class rates higher on one
// workload as a stress margin (fewer seeds — each run retransmits a lot).
func TestChaosHeavierFaultsStillConverge(t *testing.T) {
	hi := testseed.ChaosRuns(10)
	if testing.Short() {
		hi = 2
	}
	prog := workload.RecvRecvDeadlock()
	ref := verdictOf(runBounded(t, 8, prog, must.Options{FanIn: 2, Timeout: 20 * time.Millisecond}))
	testseed.Run(t, 0, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		rep := runBounded(t, 8, prog, must.Options{
			FanIn:   2,
			Timeout: 20 * time.Millisecond,
			Fault: &must.FaultPlan{
				Seed:  seed,
				Rules: []must.FaultRule{{Drop: 0.05, Dup: 0.05, Reorder: 0.05}},
			},
		})
		if rep.Partial {
			t.Fatal("heavy link faults degraded the report")
		}
		if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
			t.Fatalf("verdict diverged:\n got %+v\nwant %+v", got, ref)
		}
	})
}

// TestChaosFirstLayerCrashDegradesHonestly crashes a first-layer node.
// The run must still terminate and report the deadlock, but flagged
// partial with exactly the crashed node's ranks unknown.
func TestChaosFirstLayerCrashDegradesHonestly(t *testing.T) {
	for _, node := range []int{0, 1, 3} {
		node := node
		t.Run(fmt.Sprintf("node=%d", node), func(t *testing.T) {
			rep := runBounded(t, 8, workload.RecvRecvDeadlock(), must.Options{
				FanIn:   2,
				Timeout: 20 * time.Millisecond,
				Fault: &must.FaultPlan{
					Seed: 1,
					// Generous death-declaration window: under -race the
					// scheduler can starve a healthy node long enough to
					// miss several default heartbeats.
					Heartbeat: 5 * time.Millisecond,
					DeadAfter: 400 * time.Millisecond,
					Crashes:   []must.Crash{{Layer: 0, Index: node, After: 15 * time.Millisecond}},
				},
			})
			if !rep.Partial {
				t.Fatal("first-layer crash must flag the report partial")
			}
			want := []int{2 * node, 2*node + 1} // fan-in 2: node hosts ranks [2n, 2n+2)
			if !reflect.DeepEqual(rep.UnknownRanks, want) {
				t.Fatalf("unknown ranks %v, want %v", rep.UnknownRanks, want)
			}
			if !rep.Deadlock {
				t.Fatal("the surviving ranks' deadlock must still be reported")
			}
			for _, u := range want {
				found := false
				for _, d := range rep.Deadlocked {
					if d == u {
						found = true
					}
				}
				if !found {
					t.Fatalf("unknown rank %d must be conservatively reported deadlocked (got %v)", u, rep.Deadlocked)
				}
			}
		})
	}
}

// TestChaosInteriorCrashIsHealed crashes an interior (non-first-layer)
// node on a deadlock-free workload: the supervisor reattaches its children
// to the grandparent and the redirected transport replays pending frames,
// so the run completes with a full (non-partial) clean verdict.
func TestChaosInteriorCrashIsHealed(t *testing.T) {
	rep := runBounded(t, 16, workload.Stress(10), must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 500 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:      1,
			Heartbeat: 5 * time.Millisecond,
			DeadAfter: 400 * time.Millisecond,
			Crashes:   []must.Crash{{Layer: 1, Index: 0, After: 10 * time.Millisecond}},
		},
	})
	if rep.Partial {
		t.Fatalf("interior crash must be healed, not degrade the report (unknown %v)", rep.UnknownRanks)
	}
	if rep.Deadlock {
		t.Fatalf("false deadlock after healed interior crash: ranks %v", rep.Deadlocked)
	}
	if len(rep.CallMismatches) != 0 {
		t.Fatalf("spurious mismatches after healed crash: %v", rep.CallMismatches)
	}
}

// TestChaosSnapshotEpochRetry kills the reliable transport and drops
// exactly one AckConsistentState, so the first snapshot attempt can never
// complete. The root's deadline must abort it and the retry under a fresh
// epoch must succeed.
func TestChaosSnapshotEpochRetry(t *testing.T) {
	rep := runBounded(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 150 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:              1,
			DisableRetransmit: true,
			Rules: []must.FaultRule{{
				Drop:     1,
				MaxDrops: 1,
				Match: func(msg any) bool {
					_, ok := msg.(dws.AckConsistentState)
					return ok
				},
			}},
		},
	})
	if rep.SnapshotRetries < 1 {
		t.Fatalf("snapshot retries = %d, want >= 1 (the lost ack must force an epoch retry)", rep.SnapshotRetries)
	}
	if !rep.Deadlock {
		t.Fatal("retried snapshot must still find the deadlock")
	}
	if rep.Partial {
		t.Fatal("epoch retry must not degrade the report")
	}
}

// TestChaosFinalDetectionGiveUpIsPartial drops every AckConsistentState of
// a clean program with retransmission off: no snapshot can ever complete,
// the final detection gives up after its bounded attempts, and the report
// must say so — Partial, not a clean bill of health.
func TestChaosFinalDetectionGiveUpIsPartial(t *testing.T) {
	rep := runBounded(t, 8, workload.Stress(10), must.Options{
		FanIn:            2,
		Timeout:          20 * time.Millisecond,
		SnapshotDeadline: 50 * time.Millisecond,
		Fault: &must.FaultPlan{
			Seed:              1,
			DisableRetransmit: true,
			Rules: []must.FaultRule{{
				Drop: 1,
				Match: func(msg any) bool {
					_, ok := msg.(dws.AckConsistentState)
					return ok
				},
			}},
		},
	})
	if rep.Deadlock {
		t.Fatalf("clean program reported deadlocked: %v", rep.Deadlocked)
	}
	if !rep.Partial || !rep.FinalUnverified {
		t.Fatalf("Partial=%v FinalUnverified=%v after a final detection that gave up; want both", rep.Partial, rep.FinalUnverified)
	}
	if rep.SnapshotRetries < 5 {
		t.Fatalf("snapshot retries = %d, want >= 5 (every bounded attempt must have missed its deadline)", rep.SnapshotRetries)
	}
}
