package tbon

import (
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/event"
)

// holdHandler is a first-layer handler whose tracker claims to hold held
// operations, so its slot is at its bound after one cycle. gate, when
// non-nil, holds the node inside its first rank event; spin, while set,
// makes every peer message send the node another one, so the tree never
// goes idle.
type holdHandler struct {
	n    *Node
	held int
	gate chan struct{}
	spin *atomic.Bool
}

func (h *holdHandler) Held() int { return h.held }
func (h *holdHandler) FromRank(int, any) {
	if h.gate != nil {
		<-h.gate
		h.gate = nil
	}
}
func (h *holdHandler) FromChild(int, any) {}
func (h *holdHandler) FromParent(any)     {}
func (h *holdHandler) Control(any)        {}
func (h *holdHandler) FromPeer(int, any) {
	if h.spin != nil && h.spin.Load() {
		h.n.SendPeer(h.n.Index(), 0)
	}
}

// heldTree builds a two-leaf tree (ranks 0–1 on node 0, 2–3 on node 1,
// EventBuf 2: a bound of 4 operations each) and brings node 0 to its bound.
// node1 configures node 1's handler.
func heldTree(t *testing.T, node1 func(h *holdHandler)) *Tree {
	t.Helper()
	tr := New(Config{Leaves: 4, FanIn: 2, EventBuf: 2, Batch: true})
	tr.Start(func(n *Node) Handler {
		h := &holdHandler{n: n}
		if n.IsFirstLayer() && n.Index() == 0 {
			h.held = 100
		}
		if n.IsFirstLayer() && n.Index() == 1 {
			node1(h)
		}
		return h
	})
	if err := tr.InjectEvent(0, event.Event{Type: event.Done}); err != nil {
		t.Fatal(err)
	}
	in := tr.FirstLayer()[0].rank
	waitFor(t, func() bool { in.mu.Lock(); defer in.mu.Unlock(); return in.window == 100 })
	return tr
}

// injectAsync injects ev for rank in the background; the channel yields the
// result.
func injectAsync(tr *Tree, rank int, ev event.Event) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tr.InjectEvent(rank, ev) }()
	return done
}

func waitHeld(t *testing.T, in *rankInbox, want int) {
	t.Helper()
	waitFor(t, func() bool { in.mu.Lock(); defer in.mu.Unlock(); return in.waiting == want })
}

func expectDone(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// TestHoldReleasedOnIdleEdge: a rank held at its slot's bound while
// another node keeps the tree busy stays held, and the idle edge that
// follows releases it.
func TestHoldReleasedOnIdleEdge(t *testing.T) {
	gate := make(chan struct{})
	tr := heldTree(t, func(h *holdHandler) { h.gate = gate })
	defer tr.Stop()
	if err := tr.InjectEvent(2, event.Event{}); err != nil { // node 1 now sits in its first event
		t.Fatal(err)
	}
	done := injectAsync(tr, 0, event.Event{Type: event.Enter})
	waitHeld(t, tr.FirstLayer()[0].rank, 1)
	select {
	case <-done:
		t.Fatal("an Enter event past the bound was taken while the tree was busy")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	expectDone(t, done, "the held Enter event")
	if n := tr.Counters().HeldWaits; n < 1 {
		t.Fatalf("held waits %d after a rank was held, want >= 1", n)
	}
}

// TestHoldNeverHoldsOtherEvents: while an Enter event waits at the bound,
// the slot still takes every other event type at once.
func TestHoldNeverHoldsOtherEvents(t *testing.T) {
	gate := make(chan struct{})
	tr := heldTree(t, func(h *holdHandler) { h.gate = gate })
	defer tr.Stop()
	defer close(gate)
	if err := tr.InjectEvent(2, event.Event{}); err != nil {
		t.Fatal(err)
	}
	held := injectAsync(tr, 0, event.Event{Type: event.Enter})
	waitHeld(t, tr.FirstLayer()[0].rank, 1)
	for _, typ := range []event.Type{event.Status, event.CommInfo, event.Done, event.RankDown} {
		expectDone(t, injectAsync(tr, 1, event.Event{Type: typ, Proc: 1}), "a non-Enter event")
	}
	select {
	case <-held:
		t.Fatal("the Enter event was released by other event types")
	default:
	}
}

// TestHoldReleasesStaleSlot: a rank held on a slot that retires nothing is
// released although another node keeps the tree from ever going idle.
func TestHoldReleasesStaleSlot(t *testing.T) {
	var spin atomic.Bool
	spin.Store(true)
	tr := heldTree(t, func(h *holdHandler) { h.spin = &spin })
	defer tr.Stop()
	defer spin.Store(false)
	tr.FirstLayer()[1].SendPeer(1, 0) // node 1 spins from here on
	expectDone(t, injectAsync(tr, 0, event.Event{Type: event.Enter}), "the Enter event on a stale slot")
	if _, idle := tr.Idle(); idle {
		t.Fatal("the spinning node let the tree go idle: the release proves nothing")
	}
}
