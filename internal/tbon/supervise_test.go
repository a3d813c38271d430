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
// node 1, a healthy leaf whose handler is busy for 120 ms is never
// reported down — only a kill makes a node dead — and the killed node is
// reported exactly once.
func TestCrashReapsOnlyKilledNodes(t *testing.T) {
	var log downLog
	tr := New(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Layer: 0, Index: 1, After: 10 * time.Millisecond}},
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
