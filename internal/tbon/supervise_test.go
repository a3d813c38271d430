package tbon

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
)

// busyLeaf runs fn on every rank event it is handed; the rest is ignored.
type busyLeaf struct{ fn func() }

func (h *busyLeaf) FromRank(int, any)  { h.fn() }
func (h *busyLeaf) FromChild(int, any) {}
func (h *busyLeaf) FromParent(any)     {}
func (h *busyLeaf) FromPeer(int, any)  {}
func (h *busyLeaf) Control(any)        {}

// downLog records OnNodeDown notifications.
type downLog struct {
	mu   sync.Mutex
	down []*Node
}

func (l *downLog) add(n *Node) {
	l.mu.Lock()
	l.down = append(l.down, n)
	l.mu.Unlock()
}

func (l *downLog) get() []*Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Node(nil), l.down...)
}

// TestCrashReapsOnlyKilledNodes: under a plan that crashes first-layer
// node 1 at its first step, a healthy leaf whose handler is busy for
// 120 ms is never reported down — only a kill makes a node dead — and the
// killed node is reported exactly once.
func TestCrashReapsOnlyKilledNodes(t *testing.T) {
	var log downLog
	tr := New(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Layer: 0, Index: 1}},
	}, OnNodeDown: log.add})
	busy := make(chan struct{})
	tr.Start(func(n *Node) Handler {
		if n.IsFirstLayer() && n.Index() == 0 {
			return &busyLeaf{fn: func() {
				time.Sleep(120 * time.Millisecond)
				close(busy)
			}}
		}
		return &busyLeaf{fn: func() {}}
	})
	defer tr.Stop()
	victim := tr.FirstLayer()[1]
	if err := tr.InjectEvent(0, event.Event{}); err != nil { // rank 0 lives on node 0
		t.Fatal(err)
	}
	<-busy
	waitFor(t, func() bool { return len(log.get()) > 0 })
	time.Sleep(50 * time.Millisecond) // room for a false or repeated report
	down := log.get()
	if len(down) != 1 || down[0] != victim {
		for _, n := range down {
			t.Logf("reported down: layer %d index %d", n.Layer(), n.Index())
		}
		t.Fatalf("%d nodes reported down, want exactly the killed first-layer node 1", len(down))
	}
}

// TestCrashReapsAfterLoopStops: a node killed in the middle of a dispatch
// is reaped only once that dispatch returns and its loop stopped — never
// while its handler still runs — and then reported down exactly once.
func TestCrashReapsAfterLoopStops(t *testing.T) {
	var log downLog
	var returned atomic.Bool
	early := make(chan struct{}, 1)
	tr := New(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{Seed: 1}, OnNodeDown: func(n *Node) {
		if !returned.Load() {
			early <- struct{}{}
		}
		log.add(n)
	}})
	entered, release := make(chan struct{}), make(chan struct{})
	tr.Start(func(n *Node) Handler {
		if n.IsFirstLayer() && n.Index() == 1 {
			return &busyLeaf{fn: func() {
				close(entered)
				<-release
				returned.Store(true)
			}}
		}
		return &busyLeaf{fn: func() {}}
	})
	defer tr.Stop()
	victim := tr.FirstLayer()[1]
	if err := tr.InjectEvent(2, event.Event{}); err != nil { // rank 2 lives on node 1
		t.Fatal(err)
	}
	<-entered
	victim.Kill()
	time.Sleep(150 * time.Millisecond)
	if n := len(log.get()); n != 0 {
		t.Fatalf("node reported down %d time(s) while its handler was still dispatching", n)
	}
	close(release)
	waitFor(t, func() bool { return len(log.get()) > 0 })
	time.Sleep(50 * time.Millisecond) // room for a repeated report
	select {
	case <-early:
		t.Fatal("OnNodeDown ran before the killed node's handler returned")
	default:
	}
	if down := log.get(); len(down) != 1 || down[0] != victim {
		t.Fatalf("%d nodes reported down, want exactly the killed node once", len(down))
	}
}

// countLeaf counts the rank events it is handed.
type countLeaf struct {
	busyLeaf
	n atomic.Int64
}

func (h *countLeaf) FromRank(int, any) { h.n.Add(1) }

// TestCrashLandsAtCountedEnvelope: a slot planned to crash after 3 and
// then after 2 envelopes dies exactly there, twice. Without batching a
// first-layer node dispatches one rank event per step, so its first
// incarnation sees events 1–3, the replacement 4–5 (it counts from its own
// first step) and the third incarnation, with no crash left, the rest.
func TestCrashLandsAtCountedEnvelope(t *testing.T) {
	tr := New(Config{Leaves: 4, FanIn: 2, Fault: &fault.Plan{
		Seed:    1,
		Recover: true,
		Crashes: []fault.Crash{{Layer: 0, Index: 0, AfterEnvelopes: 3}, {Layer: 0, Index: 0, AfterEnvelopes: 2}},
	}})
	var mu sync.Mutex
	var slot0 []*countLeaf
	tr.Start(func(n *Node) Handler {
		h := &countLeaf{}
		if n.IsFirstLayer() && n.Index() == 0 {
			mu.Lock()
			slot0 = append(slot0, h)
			mu.Unlock()
		}
		return h
	})
	defer tr.Stop()
	const events = 8
	for range events {
		if err := tr.InjectEvent(0, event.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		var c []int64
		for _, h := range slot0 {
			c = append(c, h.n.Load())
		}
		return c
	}
	waitFor(t, func() bool {
		c := counts()
		return len(c) == 3 && c[2] == events-5
	})
	if c := counts(); c[0] != 3 || c[1] != 2 {
		t.Fatalf("incarnations of slot 0 dispatched %v rank events, want [3 2 %d]", c, events-5)
	}
	if got := tr.Counters().Recoveries; got != 2 {
		t.Fatalf("recoveries = %d, want 2", got)
	}
}

// TestCrashPlanRefusesTargetsOutsideTree: a plan that crashes the root or
// a node the tree does not have is an error, not a run without the crash.
func TestCrashPlanRefusesTargetsOutsideTree(t *testing.T) {
	for _, c := range []fault.Crash{
		{Layer: 0, Index: 99}, // first layer is 4 wide
		{Layer: 0, Index: -1},
		{Layer: 2, Index: 0}, // the root of layers 4/2/1
		{Layer: 3, Index: 0},
		{Layer: -1, Index: 0},
	} {
		if tr, err := NewNet(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{Crashes: []fault.Crash{c}}}); err == nil {
			tr.Stop()
			t.Errorf("crash %+v accepted", c)
		}
	}
	// A one-node tree is all root.
	if _, err := NewNet(Config{Leaves: 4, FanIn: 4, Fault: &fault.Plan{Crashes: []fault.Crash{{}}}}); err == nil {
		t.Error("crash of a one-node tree's root accepted")
	}
	tr, err := NewNet(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{Crashes: []fault.Crash{{Layer: 1, Index: 1}}}})
	if err != nil {
		t.Fatalf("crash of an interior node refused: %v", err)
	}
	tr.Stop()
}
