package tbon

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
)

// The raise protocol: a node with no known work is idle, off the run queue,
// and every input that needs it — a queue or inbox edge, Control, Kill —
// raises it onto the queue; Stop raises nothing. These tests idle nodes and
// check each raiser gets them stepped, and that the tree's workers never
// step one node twice at once.

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

// parked waits until the tree is idle and n is idle: off the run queue,
// and no worker stepping it.
func parked(t *testing.T, tr *Tree, n *Node) {
	t.Helper()
	waitFor(t, func() bool { _, idle := tr.Idle(); return idle && n.run.Load() == runIdle })
}

// within fails the test unless done closes within 10 s.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: an idle node was not stepped within 10s", what)
	}
}

// TestWakeForControl: an idle node of every layer serves a Control
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

// TestWakeForKill: an idle first-layer and an idle interior node stop
// dispatching once killed.
func TestWakeForKill(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	startCounting(tr)
	defer tr.Stop()
	for _, n := range []*Node{tr.FirstLayer()[1], tr.shape.Load().layers[1][0]} {
		parked(t, tr, n)
		n.Kill()
		within(t, n.lifecycle().stopped, "Kill")
	}
}

// TestWakeForStop: Stop returns with every node idle, and wakes none of
// them: no node is queued or stepped, and no handler is called.
func TestWakeForStop(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	hs := startCounting(tr)
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			parked(t, tr, n)
		}
	}
	before := make(map[*Node][2]int64)
	for n, h := range hs {
		d, c := h.total()
		before[n] = [2]int64{d, c}
	}
	done := make(chan struct{})
	go func() {
		tr.Stop()
		close(done)
	}()
	within(t, done, "Stop")
	for n, h := range hs {
		if d, c := h.total(); [2]int64{d, c} != before[n] {
			t.Errorf("node (%d,%d): %d deliveries and %d controls after Stop, %v before",
				n.layer, n.index, d, c, before[n])
		}
		if s := n.run.Load(); s != runIdle {
			t.Errorf("node (%d,%d): run state %d after Stop, want idle", n.layer, n.index, s)
		}
	}
}

// TestWakeForWorkerShutdown: on a TCP worker, the coordinator's shutdown
// request closes quit through the same helper as Stop, so ServeWorker
// returns with the worker's nodes idle.
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
	within(t, a.lifecycle().stopped, "Kill")
	waitFor(t, func() bool { _, idle := tr.Idle(); return idle })
	if d, c := hs[a].total(); d != d0 || c != c0 {
		t.Fatalf("killed node dispatched %d messages and %d control messages after Kill", d-d0, c-c0)
	}
}

// overlapHandler counts the messages it is handed, and the calls (Flush
// included) that found another of the same node's calls still in flight.
type overlapHandler struct {
	inflight, delivered, overlaps atomic.Int64
}

func (h *overlapHandler) call(deliveries int64) {
	if h.inflight.Add(1) != 1 {
		h.overlaps.Add(1)
	}
	h.delivered.Add(deliveries)
	runtime.Gosched() // widen the window a second worker would hit
	h.inflight.Add(-1)
}

func (h *overlapHandler) FromRank(int, any)              { h.call(1) }
func (h *overlapHandler) FromRankEvent(int, event.Event) { h.call(1) }
func (h *overlapHandler) FromChild(int, any)             { h.call(1) }
func (h *overlapHandler) FromParent(any)                 { h.call(1) }
func (h *overlapHandler) FromPeer(int, any)              { h.call(1) }
func (h *overlapHandler) Control(any)                    { h.call(1) }
func (h *overlapHandler) Flush()                         { h.call(0) }

// TestNodeStepsNeverOverlap: a 256-rank tree flooded at once from its
// ranks, peers, children, parents and Control hands every node's handler
// one call at a time — a node is on the run queue at most once and stepped
// by one worker at a time — and delivers everything.
func TestNodeStepsNeverOverlap(t *testing.T) {
	const leaves, rounds = 256, 40
	tr := New(Config{Leaves: leaves, FanIn: 4, Batch: true})
	hs := make(map[*Node]*overlapHandler)
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			hs[n] = &overlapHandler{}
		}
	}
	tr.Start(func(n *Node) Handler { return hs[n] })
	defer tr.Stop()
	layers := tr.shape.Load().layers
	first := layers[0]
	var wg sync.WaitGroup
	var sent, refused atomic.Int64
	flood := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	for r := 0; r < leaves; r += 8 {
		flood(func(int) {
			for k := r; k < r+8; k++ {
				if tr.InjectEvent(k, event.Event{Type: event.Status}) != nil {
					refused.Add(1)
				}
				sent.Add(1)
			}
		})
	}
	for _, n := range first {
		flood(func(i int) { n.SendPeer((n.index+1+i)%len(first), i); sent.Add(1) })
	}
	for l := range layers[:len(layers)-1] {
		for _, n := range layers[l] {
			flood(func(i int) { n.SendUp(i); sent.Add(1) })
		}
	}
	for l, layer := range layers[1:] {
		for i, n := range layer {
			kids := int64(len(tr.shape.Load().down[l+1][i]))
			flood(func(i int) { n.Broadcast(i); sent.Add(kids) })
		}
	}
	for _, layer := range layers {
		for _, n := range layer {
			flood(func(i int) { tr.Control(n, i); sent.Add(1) })
		}
	}
	flooded := make(chan struct{})
	go func() {
		wg.Wait()
		close(flooded)
	}()
	select {
	case <-flooded:
		waitFor(t, func() bool { _, idle := tr.Idle(); return idle })
	case <-time.After(10 * time.Second):
		t.Error("the flood was not absorbed within 10s")
	}
	var delivered int64
	for n, h := range hs {
		if o := h.overlaps.Load(); o > 0 {
			t.Errorf("node (%d,%d): %d handler calls overlapped another", n.layer, n.index, o)
		}
		delivered += h.delivered.Load()
	}
	if r := refused.Load(); r > 0 {
		t.Errorf("%d rank events refused", r)
	}
	if s := sent.Load(); !t.Failed() && delivered != s {
		t.Errorf("%d messages delivered, %d sent", delivered, s)
	}
}

// TestReplacementNotSteppedBeforeArm: a respawned replacement is not
// runnable until respawn armed it. Its handler factory, which runs before
// arm, installs the handler itself and then sends the node a rank event, a
// peer message and a Control message; the handler must see no call until
// the factory has returned, and all three after.
func TestReplacementNotSteppedBeforeArm(t *testing.T) {
	var started atomic.Bool
	var early atomic.Int64
	probe := &countingHandler{}
	factoryDone := make(chan struct{})
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true, Fault: &fault.Plan{Seed: 1, Recover: true}})
	tr.Start(func(n *Node) Handler {
		if !started.Load() {
			return &countingHandler{}
		}
		defer close(factoryDone)
		n.handler = probe // set, but not armed
		if err := tr.InjectEvent(n.index*2, event.Event{Type: event.Status}); err != nil {
			t.Error(err)
		}
		tr.FirstLayer()[0].SendPeer(n.index, 1)
		tr.Control(n, "ctl")
		time.Sleep(20 * time.Millisecond) // room for a worker to step it early
		d, c := probe.total()
		early.Store(d + c)
		return probe
	})
	started.Store(true)
	defer tr.Stop()
	victim := tr.FirstLayer()[1]
	parked(t, tr, victim)
	victim.Kill()
	within(t, factoryDone, "respawn")
	if e := early.Load(); e != 0 {
		t.Fatalf("the replacement's handler was called %d time(s) before respawn armed it", e)
	}
	waitFor(t, func() bool { d, c := probe.total(); return d == 2 && c == 1 })
	if got := tr.FirstLayer()[1]; got == victim {
		t.Fatal("the slot was not respawned")
	}
}
