package collmatch

import (
	"strings"
	"testing"

	"dwst/internal/trace"
)

func TestLeafAggregatesWorldActivations(t *testing.T) {
	l := NewLeaf(0, 4)
	for i := 0; i < 3; i++ {
		if _, emit, mism := l.Activate(trace.CommWorld, 0, true, trace.Barrier, -1, i); emit || mism != nil {
			t.Fatalf("premature ready/mismatch after %d activations", i+1)
		}
	}
	r, emit, mism := l.Activate(trace.CommWorld, 0, true, trace.Barrier, -1, 3)
	if !emit || mism != nil || r.Count != 4 || !r.World || r.Kind != trace.Barrier {
		t.Fatalf("ready = %+v emit=%v mism=%v", r, emit, mism)
	}
	if r.Lo != 0 || r.Hi != 1 {
		t.Fatalf("leaf coverage = [%d, %d)", r.Lo, r.Hi)
	}
	// Waves are independent.
	if _, emit, _ := l.Activate(trace.CommWorld, 1, true, trace.Barrier, -1, 0); emit {
		t.Fatal("wave 1 must start fresh")
	}
}

func TestLeafSubCommEmitsIncrements(t *testing.T) {
	l := NewLeaf(0, 4)
	r, emit, mism := l.Activate(7, 0, false, trace.Allreduce, -1, 2)
	if !emit || mism != nil || r.Count != 1 || r.World || r.Rank != 2 {
		t.Fatalf("subcomm ready = %+v emit=%v", r, emit)
	}
}

func TestLeafDetectsKindMismatch(t *testing.T) {
	l := NewLeaf(0, 2)
	l.Activate(trace.CommWorld, 0, true, trace.Barrier, -1, 0)
	_, _, mism := l.Activate(trace.CommWorld, 0, true, trace.Allreduce, -1, 1)
	if mism == nil {
		t.Fatal("kind mismatch undetected")
	}
	if !strings.Contains(mism.String(), "Barrier") || !strings.Contains(mism.String(), "Allreduce") {
		t.Fatalf("mismatch message %q", mism.String())
	}
}

func TestLeafDetectsRootMismatch(t *testing.T) {
	l := NewLeaf(0, 2)
	l.Activate(trace.CommWorld, 0, true, trace.Bcast, 0, 0)
	_, _, mism := l.Activate(trace.CommWorld, 0, true, trace.Bcast, 1, 1)
	if mism == nil {
		t.Fatal("root mismatch undetected")
	}
	if !strings.Contains(mism.String(), "root") {
		t.Fatalf("mismatch message %q", mism.String())
	}
}

func TestAggregatorWaitsForAllChildren(t *testing.T) {
	a := NewAggregator(3)
	mk := func(count, lo, hi int) Ready {
		return Ready{Comm: trace.CommWorld, Wave: 2, Count: count, World: true,
			Kind: trace.Barrier, Root: -1, Lo: lo, Hi: hi}
	}
	if outs, _ := a.OnReady(mk(4, 0, 1)); len(outs) != 0 {
		t.Fatal("premature forward")
	}
	if outs, _ := a.OnReady(mk(4, 1, 2)); len(outs) != 0 {
		t.Fatal("premature forward")
	}
	outs, mism := a.OnReady(mk(2, 2, 3))
	if len(outs) != 1 || mism != nil || outs[0].Count != 10 {
		t.Fatalf("merged = %+v mism=%v", outs, mism)
	}
	if outs[0].Lo != 0 || outs[0].Hi != 3 {
		t.Fatalf("merged coverage = [%d, %d)", outs[0].Lo, outs[0].Hi)
	}
	// Pass-through for sub-communicators.
	outs, _ = a.OnReady(Ready{Comm: 9, Wave: 0, Count: 1, Kind: trace.Barrier})
	if len(outs) != 1 || outs[0].Count != 1 {
		t.Fatalf("subcomm passthrough = %+v", outs)
	}
}

func TestAggregatorForwardsNonContiguousPartsIndividually(t *testing.T) {
	// After crash reattachment, an aggregator's children may cover leaf
	// ranges that do not tile; the parts must be forwarded unmerged so the
	// root's coverage tracking stays exact.
	a := NewAggregator(2)
	mk := func(lo, hi int) Ready {
		return Ready{Comm: trace.CommWorld, Wave: 0, Count: hi - lo, World: true,
			Kind: trace.Barrier, Root: -1, Lo: lo, Hi: hi}
	}
	if outs, _ := a.OnReady(mk(0, 1)); len(outs) != 0 {
		t.Fatal("premature forward")
	}
	outs, mism := a.OnReady(mk(2, 3)) // gap: leaf 1 missing
	if mism != nil || len(outs) != 2 {
		t.Fatalf("parts = %+v mism=%v", outs, mism)
	}
}

func TestAggregatorCountsCoverageNotReports(t *testing.T) {
	// A respawned worker's leaf re-emits the Readys its predecessor sent.
	// The copy must not complete the wave in place of the sibling that has
	// not reported, and once the wave is forwarded a late copy goes on to
	// the root (which re-sends the Ack) instead of opening a wave that
	// never completes.
	a := NewAggregator(2)
	first := worldReady(0, 1, 2, 1)
	if outs, _ := a.OnReady(first); len(outs) != 0 {
		t.Fatal("premature forward")
	}
	if outs, mism := a.OnReady(first); len(outs) != 0 || mism != nil {
		t.Fatalf("re-emitted report completed the wave: %+v mism=%v", outs, mism)
	}
	outs, mism := a.OnReady(worldReady(0, 0, 1, 2))
	if mism != nil || len(outs) != 1 || outs[0].Lo != 0 || outs[0].Hi != 2 || outs[0].Count != 3 {
		t.Fatalf("merged = %+v mism=%v", outs, mism)
	}
	if outs, _ := a.OnReady(first); len(outs) != 1 || outs[0] != first {
		t.Fatalf("late copy of a forwarded wave = %+v, want it passed through", outs)
	}
	// The next wave still waits for both children.
	if outs, _ := a.OnReady(worldReady(1, 1, 2, 1)); len(outs) != 0 {
		t.Fatal("premature forward of the next wave")
	}
	if outs, _ := a.OnReady(worldReady(1, 0, 1, 2)); len(outs) != 1 || outs[0].Count != 3 {
		t.Fatalf("next wave = %+v", outs)
	}
}

func TestAggregatorFlushAndPassThrough(t *testing.T) {
	a := NewAggregator(2)
	held := Ready{Comm: trace.CommWorld, Wave: 0, Count: 1, World: true,
		Kind: trace.Barrier, Root: -1, Lo: 0, Hi: 1}
	if outs, _ := a.OnReady(held); len(outs) != 0 {
		t.Fatal("premature forward")
	}
	flushed := a.Flush()
	if len(flushed) != 1 || flushed[0] != held {
		t.Fatalf("flushed = %+v", flushed)
	}
	// After Flush, world reports pass through without waiting for siblings.
	outs, _ := a.OnReady(held)
	if len(outs) != 1 || outs[0] != held {
		t.Fatalf("post-flush = %+v", outs)
	}
}

func TestAggregatorDetectsCrossChildMismatch(t *testing.T) {
	a := NewAggregator(2)
	a.OnReady(Ready{Comm: trace.CommWorld, Wave: 0, Count: 2, World: true, Kind: trace.Barrier, Root: -1, Lo: 0, Hi: 1})
	_, mism := a.OnReady(Ready{Comm: trace.CommWorld, Wave: 0, Count: 2, World: true, Kind: trace.Reduce, Root: 0, Lo: 1, Hi: 2})
	if mism == nil {
		t.Fatal("cross-child mismatch undetected")
	}
}

func worldReady(wave, lo, hi, count int) Ready {
	return Ready{Comm: trace.CommWorld, Wave: wave, Count: count, World: true,
		Kind: trace.Barrier, Root: -1, Lo: lo, Hi: hi}
}

func TestRootCompletesWorldWave(t *testing.T) {
	r := NewRoot(8, 2)
	if acks, _ := r.OnReady(worldReady(0, 0, 1, 5)); len(acks) != 0 {
		t.Fatal("premature ack")
	}
	acks, mism := r.OnReady(worldReady(0, 1, 2, 3))
	if len(acks) != 1 || acks[0].Wave != 0 || mism != nil {
		t.Fatalf("acks = %v mism = %v", acks, mism)
	}
	// Duplicate reports for an acked wave re-return the Ack (the sender
	// may have missed the broadcast, e.g. after crash-recovery re-emission).
	if acks, _ := r.OnReady(worldReady(0, 0, 1, 5)); len(acks) != 1 {
		t.Fatal("acked wave must re-ack duplicate reports")
	}
}

func TestRootWorldCoverageIsIdempotent(t *testing.T) {
	r := NewRoot(8, 2)
	// The same leaf range reported twice (retransmission duplicate) must
	// not complete the wave on its own.
	if acks, _ := r.OnReady(worldReady(0, 0, 1, 4)); len(acks) != 0 {
		t.Fatal("premature ack")
	}
	if acks, _ := r.OnReady(worldReady(0, 0, 1, 4)); len(acks) != 0 {
		t.Fatal("duplicate coverage must not complete the wave")
	}
	if acks, _ := r.OnReady(worldReady(0, 1, 2, 4)); len(acks) != 1 {
		t.Fatal("full coverage must complete the wave")
	}
}

func TestRootDetectsMismatch(t *testing.T) {
	r := NewRoot(4, 1)
	r.OnReady(Ready{Comm: 9, Wave: 0, Count: 1, Kind: trace.Gather, Root: 0, Rank: 0})
	_, mism := r.OnReady(Ready{Comm: 9, Wave: 0, Count: 1, Kind: trace.Gather, Root: 2, Rank: 2})
	if mism == nil {
		t.Fatal("root-arg mismatch undetected at tree root")
	}
}

func TestRootSealsDerivedCommAndCompletesPendingWave(t *testing.T) {
	r := NewRoot(4, 1)
	const sub trace.CommID = 5
	sr := func(rank int) Ready {
		return Ready{Comm: sub, Wave: 0, Count: 1, Kind: trace.Barrier, Root: -1, Rank: rank}
	}
	if acks, _ := r.OnReady(sr(0)); len(acks) != 0 {
		t.Fatal("unsealed comm must not complete")
	}
	if acks, _ := r.OnReady(sr(2)); len(acks) != 0 {
		t.Fatal("unsealed comm must not complete")
	}
	// Comm_split on world (wave 3) produced comm 5 = {0,2} and comm 6 = {1,3}.
	r.OnMember(Member{NewComm: sub, Rank: 0, Parent: trace.CommWorld, ParentWave: 3})
	r.OnMember(Member{NewComm: 6, Rank: 1, Parent: trace.CommWorld, ParentWave: 3})
	r.OnMember(Member{NewComm: sub, Rank: 2, Parent: trace.CommWorld, ParentWave: 3})
	acks := r.OnMember(Member{NewComm: 6, Rank: 3, Parent: trace.CommWorld, ParentWave: 3})
	if len(acks) != 1 || acks[0].Comm != sub || acks[0].Wave != 0 {
		t.Fatalf("acks = %v", acks)
	}
	if got := r.Group(sub); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("group(5) = %v", got)
	}
	if got := r.Group(6); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("group(6) = %v", got)
	}
}

func TestRootDerivedCommAfterSeal(t *testing.T) {
	r := NewRoot(2, 1)
	r.OnMember(Member{NewComm: 9, Rank: 0, Parent: trace.CommWorld, ParentWave: 0})
	r.OnMember(Member{NewComm: 9, Rank: 1, Parent: trace.CommWorld, ParentWave: 0})
	if r.GroupSize(9) != 2 {
		t.Fatalf("group size = %d", r.GroupSize(9))
	}
	sr := func(rank int) Ready {
		return Ready{Comm: 9, Wave: 0, Count: 1, Kind: trace.Barrier, Root: -1, Rank: rank}
	}
	if acks, _ := r.OnReady(sr(0)); len(acks) != 0 {
		t.Fatal("half the group is not complete")
	}
	// A duplicate of the same rank's report must not complete the wave.
	if acks, _ := r.OnReady(sr(0)); len(acks) != 0 {
		t.Fatal("duplicate rank report must not complete the wave")
	}
	if acks, _ := r.OnReady(sr(1)); len(acks) != 1 {
		t.Fatal("sealed comm wave must complete")
	}
}

func TestRootMemberDuplicatesAreIdempotent(t *testing.T) {
	r := NewRoot(2, 1)
	r.OnMember(Member{NewComm: 9, Rank: 0, Parent: trace.CommWorld, ParentWave: 0})
	// Crash-recovery re-emission: the same rank reports again.
	r.OnMember(Member{NewComm: 9, Rank: 0, Parent: trace.CommWorld, ParentWave: 0})
	if r.GroupSize(9) != 0 {
		t.Fatalf("sealed on duplicate: group = %v", r.Group(9))
	}
	r.OnMember(Member{NewComm: 9, Rank: 1, Parent: trace.CommWorld, ParentWave: 0})
	if g := r.Group(9); len(g) != 2 || g[0] != 0 || g[1] != 1 {
		t.Fatalf("group = %v", g)
	}
}

func TestNestedDerivedComms(t *testing.T) {
	r := NewRoot(4, 1)
	r.OnMember(Member{NewComm: 5, Rank: 0, Parent: trace.CommWorld, ParentWave: 0})
	r.OnMember(Member{NewComm: 5, Rank: 1, Parent: trace.CommWorld, ParentWave: 0})
	r.OnMember(Member{NewComm: 6, Rank: 2, Parent: trace.CommWorld, ParentWave: 0})
	r.OnMember(Member{NewComm: 6, Rank: 3, Parent: trace.CommWorld, ParentWave: 0})
	r.OnMember(Member{NewComm: 7, Rank: 0, Parent: 5, ParentWave: 1})
	acks := r.OnMember(Member{NewComm: 7, Rank: 1, Parent: 5, ParentWave: 1})
	if len(acks) != 0 {
		t.Fatalf("no pending waves on 7 yet: %v", acks)
	}
	if r.GroupSize(7) != 2 {
		t.Fatalf("group size(7) = %d", r.GroupSize(7))
	}
}
