package fault

import (
	"testing"
	"time"
)

// drive rolls n decisions on a fresh link for (seed, id, class).
func drive(plan *Plan, id int, class Class, n int, msg any) []Decision {
	l := NewInjector(plan).Link(id, class)
	ds := make([]Decision, n)
	for i := range ds {
		ds[i] = l.Decide(msg)
	}
	return ds
}

func TestDeterministicStreams(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{{Drop: 0.3, Dup: 0.2, Reorder: 0.1, JitterMax: time.Millisecond}}}
	a := drive(plan, 5, UpLink, 500, nil)
	b := drive(plan, 5, UpLink, 500, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical links: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Different link id or class must give an independent stream.
	c := drive(plan, 6, UpLink, 500, nil)
	d := drive(plan, 5, DownLink, 500, nil)
	same := func(x []Decision) bool {
		for i := range a {
			if a[i] != x[i] {
				return false
			}
		}
		return true
	}
	if same(c) || same(d) {
		t.Fatal("per-link streams are not independent")
	}
	// Different seed must change the stream.
	e := drive(&Plan{Seed: 43, Rules: plan.Rules}, 5, UpLink, 500, nil)
	if same(e) {
		t.Fatal("seed does not influence the stream")
	}
}

func TestProbabilitiesRoughlyHold(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Drop: 0.25}}}
	ds := drive(plan, 0, AnyLink, 10000, nil)
	drops := 0
	for _, d := range ds {
		if d.Drop {
			drops++
		}
	}
	if drops < 2000 || drops > 3000 {
		t.Fatalf("drop rate %d/10000, want ~2500", drops)
	}
}

func TestMaxDropsBudgetIsShared(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Drop: 1, MaxDrops: 3}}}
	in := NewInjector(plan)
	l1, l2 := in.Link(0, UpLink), in.Link(1, UpLink)
	drops := 0
	for i := 0; i < 50; i++ {
		if l1.Decide(nil).Drop {
			drops++
		}
		if l2.Decide(nil).Drop {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("dropped %d messages, budget was 3", drops)
	}
}

func TestClassFilter(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Link: PeerLink, Drop: 1}}}
	if ds := drive(plan, 2, UpLink, 20, nil); ds[0].Drop {
		t.Fatal("peer-only rule dropped an up-link message")
	}
	ds := drive(plan, 2, PeerLink, 20, nil)
	if !ds[0].Drop {
		t.Fatal("peer rule must drop on a peer link")
	}
}

type msgA struct{}
type msgB struct{}

func TestMatchFilterDoesNotPerturbStream(t *testing.T) {
	// A Match-filtered rule consumes the same number of draws whether or
	// not it matches, so the decision for message k is independent of the
	// types of messages 0..k-1.
	match := func(m any) bool { _, ok := m.(msgA); return ok }
	plan := &Plan{Seed: 9, Rules: []Rule{{Drop: 0.5, Match: match}}}
	in := NewInjector(plan)

	// Stream 1: decide B (unmatched), then A.
	l := in.Link(0, UpLink)
	if l.Decide(msgB{}).Drop {
		t.Fatal("unmatched message must never be touched")
	}
	gotA := l.Decide(msgA{})

	// Stream 2: decide A twice; the second A must equal stream 1's.
	l = NewInjector(plan).Link(0, UpLink)
	l.Decide(msgA{})
	wantA := l.Decide(msgA{})
	if gotA != wantA {
		t.Fatalf("draw count depends on Match outcome: %+v vs %+v", gotA, wantA)
	}
}

func TestStallEvery(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{StallEvery: 3, StallFor: time.Millisecond}}}
	ds := drive(plan, 0, AnyLink, 9, nil)
	for i, d := range ds {
		wantStall := (i+1)%3 == 0
		if (d.Stall > 0) != wantStall {
			t.Fatalf("message %d: stall=%v, want %v", i, d.Stall, wantStall)
		}
	}
}

func TestPlanDefaults(t *testing.T) {
	p := &Plan{}
	if p.RetryBaseInterval() != 2*time.Millisecond ||
		p.RetryCapInterval() != 32*time.Millisecond ||
		p.RetryAttempts() != 12 {
		t.Fatal("effective defaults wrong")
	}
}
