package tbon

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/event"
)

// The wake protocol: a node loop parks on its one token, and every input
// that needs the loop — a queue or inbox edge, Control, Kill, the close of
// quit — raises it. These tests park loops and check each raiser wakes them.

// countingHandler counts the messages it is handed, control apart.
type countingHandler struct{ deliveries, controls atomic.Int64 }

func (h *countingHandler) FromRank(int, any)     { h.deliveries.Add(1) }
func (h *countingHandler) FromChild(int, any)    { h.deliveries.Add(1) }
func (h *countingHandler) FromParent(any)        { h.deliveries.Add(1) }
func (h *countingHandler) FromPeer(int, any)     { h.deliveries.Add(1) }
func (h *countingHandler) Control(any)           { h.controls.Add(1) }
func (h *countingHandler) total() (int64, int64) { return h.deliveries.Load(), h.controls.Load() }

// startCounting starts tr with one countingHandler per local node.
func startCounting(tr *Tree) map[*Node]*countingHandler {
	hs := make(map[*Node]*countingHandler)
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			if n.local {
				hs[n] = &countingHandler{}
			}
		}
	}
	tr.Start(func(n *Node) Handler { return hs[n] })
	return hs
}

// parked waits until the tree is idle and n's token is down: n's loop is
// parked on the token or on its way there.
func parked(t *testing.T, tr *Tree, n *Node) {
	t.Helper()
	waitFor(t, func() bool { _, idle := tr.Idle(); return idle && len(n.ready) == 0 })
}

// within fails the test unless done closes within 10 s.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: a parked loop did not wake within 10s", what)
	}
}

// TestWakeForControl: a parked loop of every layer serves a Control
// message.
func TestWakeForControl(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	hs := startCounting(tr)
	defer tr.Stop()
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			parked(t, tr, n)
			tr.Control(n, "wake")
			waitFor(t, func() bool { _, c := hs[n].total(); return c == 1 })
		}
	}
}

// TestWakeForKill: a parked first-layer and a parked interior node stop
// dispatching once killed.
func TestWakeForKill(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	startCounting(tr)
	defer tr.Stop()
	for _, n := range []*Node{tr.FirstLayer()[1], tr.shape.Load().layers[1][0]} {
		parked(t, tr, n)
		n.Kill()
		within(t, n.stopped, "Kill")
	}
}

// TestWakeForStop: Stop returns with every loop parked.
func TestWakeForStop(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	startCounting(tr)
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			parked(t, tr, n)
		}
	}
	done := make(chan struct{})
	go func() {
		tr.Stop()
		close(done)
	}()
	within(t, done, "Stop")
}

// TestWakeForWorkerShutdown: on a TCP worker, the coordinator's shutdown
// request closes quit through the same helper as Stop, so ServeWorker
// returns with the worker's loops parked.
func TestWakeForWorkerShutdown(t *testing.T) {
	coord, err := NewNet(Config{Leaves: 4, FanIn: 2, Batch: true, Net: &NetConfig{Role: NetCoordinator, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	startCounting(coord)
	ws, err := DialWorkerResume(coord.ListenAddr(), 0, 5*time.Second, "")
	if err != nil {
		coord.Stop()
		t.Fatal(err)
	}
	worker, err := NewNet(ws.TreeConfig())
	if err != nil {
		ws.Close()
		coord.Stop()
		t.Fatal(err)
	}
	startCounting(worker)
	served := make(chan error, 1)
	go func() { served <- worker.ServeWorker() }()
	if err := coord.WaitReady(); err != nil {
		coord.Stop()
		t.Fatal(err)
	}
	for _, n := range worker.FirstLayer() {
		if n.local {
			parked(t, worker, n)
		}
	}
	coord.Stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeWorker after a clean shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker shutdown: ServeWorker did not return within 10s")
	}
}

// TestKilledNodeDispatchesNothing: once Kill returned, a node's handler is
// handed nothing more — not the peer, parent or control messages sent to it
// after the kill, and not rank events, which InjectEvent refuses.
func TestKilledNodeDispatchesNothing(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	hs := startCounting(tr)
	defer tr.Stop()
	a, b := tr.FirstLayer()[0], tr.FirstLayer()[1]
	parent := tr.shape.Load().up[0][a.index]
	parked(t, tr, a)
	a.Kill()
	d0, c0 := hs[a].total()
	for i := 0; i < 3*maxSlab; i++ {
		b.SendPeer(a.index, i)
	}
	parent.Broadcast("down")
	tr.Control(a, "ctl")
	if err := tr.InjectEvent(0, event.Event{Type: event.Enter}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("InjectEvent on a killed node: %v, want ErrNodeDown", err)
	}
	within(t, a.stopped, "Kill")
	waitFor(t, func() bool { _, idle := tr.Idle(); return idle })
	if d, c := hs[a].total(); d != d0 || c != c0 {
		t.Fatalf("killed node dispatched %d messages and %d control messages after Kill", d-d0, c-c0)
	}
}
