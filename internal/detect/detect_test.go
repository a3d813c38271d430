package detect

import (
	"strings"
	"testing"

	"dwst/internal/collmatch"
	"dwst/internal/dws"
	"dwst/internal/trace"
)

// runDetection drives the root state machine through one detection round
// with the given per-node reports.
func runDetection(t *testing.T, r *Root, reports []dws.WaitReport) *Result {
	t.Helper()
	if !r.Start() {
		t.Fatal("Start refused")
	}
	if r.Start() {
		t.Fatal("second Start must be refused while in flight")
	}
	for i := 0; i < len(reports); i++ {
		done := r.OnAck(dws.AckConsistentState{Node: reports[i].Node, Epoch: r.Epoch()})
		if (i == len(reports)-1) != done {
			t.Fatalf("ack %d: done=%v", i, done)
		}
	}
	var res *Result
	for i, rep := range reports {
		rep.Epoch = r.Epoch()
		res = r.OnWaitReport(rep)
		if (i == len(reports)-1) != (res != nil) {
			t.Fatalf("report %d: res=%v", i, res)
		}
	}
	return res
}

func blockedSend(rank, target int) dws.WaitEntry {
	return dws.WaitEntry{
		Rank: rank, State: dws.Blocked, Kind: trace.Send, Sem: dws.SemAnd,
		Targets: []int{target}, Comm: trace.CommWorld,
		Desc: "send waits", MatchedSendProc: -1,
	}
}

func running(rank int) dws.WaitEntry {
	return dws.WaitEntry{Rank: rank, State: dws.Running, MatchedSendProc: -1}
}

func TestDetectsCycleAcrossNodes(t *testing.T) {
	r := NewRoot(4, 2)
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 3), running(1)}},
		{Node: 1, Entries: []dws.WaitEntry{running(2), blockedSend(3, 0)}},
	})
	if !res.Deadlock || len(res.Deadlocked) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Deadlocked[0] != 0 || res.Deadlocked[1] != 3 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
	if len(res.Cycle) != 2 {
		t.Fatalf("cycle = %v", res.Cycle)
	}
	if res.HTML.String() == "" || res.DOT.String() == "" {
		t.Fatal("outputs missing")
	}
	if res.Timings.Synchronization < 0 || res.Timings.OutputGeneration <= 0 {
		t.Fatalf("timings = %+v", res.Timings)
	}
	// Result also arrives on the channel for the driver.
	select {
	case got := <-r.Results:
		if got != res {
			t.Fatal("channel result differs")
		}
	default:
		t.Fatal("no result on channel")
	}
}

func TestNoDeadlockWithoutCycle(t *testing.T) {
	r := NewRoot(2, 1)
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 1), running(1)}},
	})
	if res.Deadlock {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Blocked) != 1 || res.Blocked[0] != 0 {
		t.Fatalf("blocked = %v", res.Blocked)
	}
	// The root must be reusable for the next round.
	if !r.Start() {
		t.Fatal("root not idle after a round")
	}
}

func TestWildcardExpansionUsesGroups(t *testing.T) {
	r := NewRoot(6, 1)
	// Register a derived communicator {1, 3, 5} (created by world wave 0).
	for _, rank := range []int{0, 1, 2, 3, 4, 5} {
		comm := trace.CommID(7)
		if rank%2 == 0 {
			comm = 8
		}
		r.OnMember(collmatch.Member{NewComm: comm, Rank: rank, Parent: trace.CommWorld, ParentWave: 0})
	}
	sub := trace.CommID(7)
	e := dws.WaitEntry{
		Rank: 1, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemOr,
		WildComms: []trace.CommID{sub}, Comm: sub, Tag: trace.AnyTag,
		MatchedSendProc: -1, IsWildcardRecv: true,
	}
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{running(0), e, running(2), running(3), running(4), running(5)}},
	})
	if res.Deadlock {
		t.Fatal("single blocked wildcard with live targets is not deadlocked")
	}
	// Now everyone in the subgroup blocks on the wildcard's subgroup — an OR
	// knot within {1,3,5}.
	e3 := e
	e3.Rank = 3
	e5 := e
	e5.Rank = 5
	res = runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{running(0), e, running(2), e3, running(4), e5}},
	})
	if !res.Deadlock || len(res.Deadlocked) != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res.Arcs != 6 { // each of the 3 waits for the other 2
		t.Fatalf("arcs = %d", res.Arcs)
	}
	// A Waitany over wildcard receives on both sub-communicators waits for
	// their union; with an explicit target inside it and a status-resolved
	// source (group rank 1 of {0,2,4} = world rank 2) nothing is counted
	// twice: rank 1 has exactly the 5 other ranks as targets.
	both := e
	both.Kind = trace.Waitany
	both.WildComms = []trace.CommID{7, 8, 7}
	both.Targets = []int{3}
	both.ResolvedSrcs = []dws.GroupRef{{Comm: 8, Src: 1}}
	res = runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{running(0), both, running(2), e3, running(4), e5}},
	})
	if res.Arcs != 5+2+2 {
		t.Fatalf("arcs = %d, want 9", res.Arcs)
	}
	if res.Deadlock {
		t.Fatalf("rank 1 can be served by a running rank, so nobody is stuck: %+v", res.Deadlocked)
	}
}

func TestCollectiveExpansionExcludesWaveMembers(t *testing.T) {
	r := NewRoot(3, 1)
	coll := func(rank int) dws.WaitEntry {
		return dws.WaitEntry{
			Rank: rank, State: dws.Blocked, Kind: trace.Barrier, Sem: dws.SemAnd,
			IsColl: true, CollComm: trace.CommWorld, CollWave: 0,
			MatchedSendProc: -1, Desc: "barrier",
		}
	}
	// Ranks 0 and 1 are in the barrier; rank 2 is stuck in a receive waiting
	// for rank 0 — classic barrier-mismatch deadlock.
	e2 := dws.WaitEntry{
		Rank: 2, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemAnd,
		Targets: []int{0}, Comm: trace.CommWorld, MatchedSendProc: -1,
	}
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{coll(0), coll(1), e2}},
	})
	if !res.Deadlock || len(res.Deadlocked) != 3 {
		t.Fatalf("res = %+v", res)
	}
	// Barrier entries wait only for rank 2 (the non-participant), not for
	// each other.
	e := res.Entries[0]
	if len(e.Targets) != 0 {
		t.Fatalf("expanded targets are computed in the graph, not the entry: %+v", e)
	}
}

func TestResolvedSrcTranslation(t *testing.T) {
	r := NewRoot(4, 1)
	for _, rank := range []int{0, 1, 2, 3} {
		comm := trace.CommID(9)
		r.OnMember(collmatch.Member{NewComm: comm, Rank: rank, Parent: trace.CommWorld, ParentWave: 0})
	}
	// Wildcard on comm 9 resolved to group rank 2 => world rank 2 (identity
	// group here), cycle with rank 2 blocked on 0.
	e0 := dws.WaitEntry{
		Rank: 0, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemAnd,
		ResolvedSrcs: []dws.GroupRef{{Comm: 9, Src: 2}}, Comm: 9,
		MatchedSendProc: -1,
	}
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{e0, running(1), blockedSend(2, 0), running(3)}},
	})
	if !res.Deadlock || len(res.Deadlocked) != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUnexpectedMatchAnalysis(t *testing.T) {
	entries := []dws.WaitEntry{
		{ // blocked wildcard recv on rank 1, recorded match = (2, 1), inactive
			Rank: 1, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemAnd,
			Targets: []int{2}, Comm: trace.CommWorld, Tag: trace.AnyTag,
			IsWildcardRecv: true, MatchedSendProc: 2, MatchedSendTS: 1,
		},
		{ // blocked send from rank 0 targeting rank 1 — could match
			Rank: 0, State: dws.Blocked, Kind: trace.Send, Sem: dws.SemAnd,
			Targets: []int{1}, Comm: trace.CommWorld, Tag: 0, MatchedSendProc: -1,
		},
		{ // blocked collective on rank 2
			Rank: 2, State: dws.Blocked, Kind: trace.Reduce, Sem: dws.SemAnd,
			IsColl: true, CollComm: trace.CommWorld, CollWave: 0, MatchedSendProc: -1,
		},
	}
	ums := findUnexpectedMatches(entries)
	if len(ums) != 1 {
		t.Fatalf("unexpected matches = %v", ums)
	}
	u := ums[0]
	if u.RecvRank != 1 || u.ActiveSendRank != 0 || u.MatchedSendRank != 2 {
		t.Fatalf("unexpected match fields: %+v", u)
	}
}

func TestUnexpectedMatchSurfacesInHTML(t *testing.T) {
	r := NewRoot(3, 1)
	res := runDetection(t, r, []dws.WaitReport{{Node: 0, Entries: []dws.WaitEntry{
		{Rank: 1, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemAnd,
			Targets: []int{2}, Comm: trace.CommWorld, Tag: trace.AnyTag,
			IsWildcardRecv: true, MatchedSendProc: 2, MatchedSendTS: 1},
		{Rank: 0, State: dws.Blocked, Kind: trace.Send, Sem: dws.SemAnd,
			Targets: []int{1}, Comm: trace.CommWorld, Tag: 0, MatchedSendProc: -1},
		{Rank: 2, State: dws.Blocked, Kind: trace.Reduce, Sem: dws.SemAnd,
			IsColl: true, CollComm: trace.CommWorld, CollWave: 0, MatchedSendProc: -1},
	}}})
	if !res.Deadlock || len(res.UnexpectedMatches) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.HTML.String(), "Unexpected matches") {
		t.Fatal("HTML must explain unexpected matches")
	}
}

func TestTriggerWhileRunningIsRefused(t *testing.T) {
	r := NewRoot(2, 1)
	if !r.Start() {
		t.Fatal("first start")
	}
	if r.Start() {
		t.Fatal("second start must fail")
	}
}
