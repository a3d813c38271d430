package must_test

import (
	"strings"
	"testing"
	"time"

	"dwst/mpi"
	"dwst/must"
)

func opts(mode must.Mode) must.Options {
	return must.Options{Mode: mode, FanIn: 2, Timeout: 30 * time.Millisecond}
}

func deadlockProg(p *mpi.Proc) {
	peer := 1 - p.Rank()
	p.Recv(peer, 0, mpi.CommWorld)
	p.Send(nil, peer, 0, mpi.CommWorld)
	p.Finalize()
}

func cleanProg(p *mpi.Proc) {
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() + p.Size() - 1) % p.Size()
	for i := 0; i < 10; i++ {
		p.Sendrecv(mpi.Int64(int64(i)), right, 0, left, 0, mpi.CommWorld)
	}
	p.Barrier(mpi.CommWorld)
	p.Finalize()
}

func TestBothModesDetectRecvRecv(t *testing.T) {
	for _, mode := range []must.Mode{must.Distributed, must.Centralized} {
		rep := must.Run(2, deadlockProg, opts(mode))
		if !rep.Deadlock {
			t.Fatalf("mode %v: deadlock not detected", mode)
		}
		if !rep.AppAborted {
			t.Fatalf("mode %v: application must be aborted", mode)
		}
		if rep.PotentialOnly {
			t.Fatalf("mode %v: this deadlock manifests", mode)
		}
		if rep.Verdict != must.VerdictDeadlock {
			t.Fatalf("mode %v: verdict %v beside Deadlock=true", mode, rep.Verdict)
		}
		if len(rep.Deadlocked) != 2 || len(rep.Cycle) != 2 {
			t.Fatalf("mode %v: deadlocked=%v cycle=%v", mode, rep.Deadlocked, rep.Cycle)
		}
		if !strings.Contains(rep.HTML.String(), "Deadlock detected") {
			t.Fatalf("mode %v: HTML report missing", mode)
		}
		if !strings.Contains(rep.DOT.String(), "digraph WaitForGraph") {
			t.Fatalf("mode %v: DOT missing", mode)
		}
	}
}

func TestBothModesCleanRun(t *testing.T) {
	for _, mode := range []must.Mode{must.Distributed, must.Centralized} {
		rep := must.Run(6, cleanProg, opts(mode))
		if rep.Deadlock {
			t.Fatalf("mode %v: false positive %v", mode, rep.Deadlocked)
		}
		if rep.AppAborted {
			t.Fatalf("mode %v: clean app aborted", mode)
		}
	}
}

func TestPotentialDeadlockSendSend(t *testing.T) {
	prog := func(p *mpi.Proc) {
		peer := 1 - p.Rank()
		p.Send(mpi.Int64(1), peer, 0, mpi.CommWorld)
		p.Recv(peer, 0, mpi.CommWorld)
		p.Finalize()
	}
	rep := must.Run(2, prog, opts(must.Distributed))
	if !rep.Deadlock || !rep.PotentialOnly {
		t.Fatalf("potential send-send: deadlock=%v potentialOnly=%v", rep.Deadlock, rep.PotentialOnly)
	}
	if rep.AppAborted {
		t.Fatal("buffered app must complete")
	}
	// With rendezvous semantics the same program deadlocks for real.
	o := opts(must.Distributed)
	o.Rendezvous = true
	rep = must.Run(2, prog, o)
	if !rep.Deadlock || rep.PotentialOnly {
		t.Fatalf("rendezvous send-send: deadlock=%v potentialOnly=%v", rep.Deadlock, rep.PotentialOnly)
	}
}

func TestStandaloneRunWatchdog(t *testing.T) {
	err := mpi.Run(2, deadlockProg, mpi.Options{HangTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("stand-alone deadlock must be caught by the watchdog")
	}
	if err := mpi.Run(4, cleanProg); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}

func TestTimingsPopulatedForWildcardCase(t *testing.T) {
	rep := must.Run(8, func(p *mpi.Proc) {
		p.Recv(mpi.AnySource, mpi.AnyTag, mpi.CommWorld)
		p.Finalize()
	}, opts(must.Distributed))
	if !rep.Deadlock {
		t.Fatal("wildcard deadlock not detected")
	}
	if rep.Arcs != 8*7 {
		t.Fatalf("arcs = %d", rep.Arcs)
	}
	if rep.Timings.Total() <= 0 {
		t.Fatalf("timings = %+v", rep.Timings)
	}
	if rep.Timings.OutputGeneration <= 0 {
		t.Fatal("output generation must be measured")
	}
}

// TestRunRefusesIncompatibleOptions: an option the selected architecture
// cannot honour is an error, never a silently fault-free (or unwatched, or
// in-process) run that reports clean.
func TestRunRefusesIncompatibleOptions(t *testing.T) {
	plan := &must.FaultPlan{RankCrashes: []must.RankCrash{{Rank: 1, AtCall: 2}}}
	cases := []struct {
		name string
		opts must.Options
	}{
		{"centralized with Fault", must.Options{Mode: must.Centralized, Fault: plan}},
		{"centralized with Net", must.Options{Mode: must.Centralized, Net: &must.NetOptions{Workers: 1}}},
		{"centralized with WatchdogQuiet", must.Options{Mode: must.Centralized, WatchdogQuiet: time.Second}},
		{"centralized with Differential", must.Options{Mode: must.Centralized, Differential: true}},
		{"Net with Fault", must.Options{Net: &must.NetOptions{Workers: 1}, Fault: plan}},
		{"Net with LinkDelay", must.Options{Net: &must.NetOptions{Workers: 1}, LinkDelay: time.Millisecond}},
		{"negative MemBudget", must.Options{MemBudget: -1}},
		{"negative Timeout", must.Options{Timeout: -time.Second}},
		{"FanIn 1", must.Options{FanIn: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opts.Validate(); err == nil {
				t.Fatal("Validate accepted the combination")
			}
			rep := must.Run(4, cleanProg, c.opts)
			if rep.Err == nil {
				t.Fatalf("Run executed instead of refusing: %+v", rep)
			}
			if rep.Deadlock || rep.AppAborted || rep.Detections != 0 {
				t.Fatalf("refused run carries results: %+v", rep)
			}
		})
	}
}
