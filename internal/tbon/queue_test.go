package tbon

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// cycleRecorder counts the peer messages each delivery cycle handed over:
// Flush marks the end of a cycle. gate, while non-nil, holds the node inside
// its first delivery so a burst can pile up behind it.
type cycleRecorder struct {
	mu     sync.Mutex
	gate   chan struct{}
	cur    int
	cycles []int // messages per non-empty cycle
	got    []int // payloads in delivery order
}

func (c *cycleRecorder) FromRank(int, any)  {}
func (c *cycleRecorder) FromChild(int, any) {}
func (c *cycleRecorder) FromParent(any)     {}
func (c *cycleRecorder) Control(any)        {}
func (c *cycleRecorder) FromPeer(_ int, msg any) {
	c.mu.Lock()
	gate := c.gate
	c.gate = nil
	c.cur++
	c.got = append(c.got, msg.(int))
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
}
func (c *cycleRecorder) Flush() {
	c.mu.Lock()
	if c.cur > 0 {
		c.cycles = append(c.cycles, c.cur)
		c.cur = 0
	}
	c.mu.Unlock()
}
func (c *cycleRecorder) delivered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// TestQueueFIFOUnderConcurrentSenders: eight goroutines share one link; the
// receiver must see each sender's messages in send order, none lost.
func TestQueueFIFOUnderConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 2000
	tr := New(Config{Leaves: 4, FanIn: 2, Batch: true})
	rec := &cycleRecorder{}
	tr.Start(func(n *Node) Handler { return rec })
	defer tr.Stop()
	a := tr.FirstLayer()[0]
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				a.SendPeer(1, s*perSender+i)
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, func() bool { return rec.delivered() == senders*perSender })
	rec.mu.Lock()
	defer rec.mu.Unlock()
	next := make([]int, senders)
	for _, v := range rec.got {
		s, i := v/perSender, v%perSender
		if i != next[s] {
			t.Fatalf("sender %d: message %d delivered when %d was due", s, i, next[s])
		}
		next[s]++
	}
}

// TestQueueSlabPerCycle: with Batch on a cycle takes at most slabCap
// envelopes (and a backlog does get batched); with Batch off exactly one.
func TestQueueSlabPerCycle(t *testing.T) {
	const burst = 300
	for _, batch := range []bool{true, false} {
		tr := New(Config{Leaves: 4, FanIn: 2, Batch: batch})
		gate := make(chan struct{})
		rec := &cycleRecorder{gate: gate}
		tr.Start(func(n *Node) Handler { return rec })
		a := tr.FirstLayer()[0]
		a.SendPeer(1, 0)
		waitFor(t, func() bool { return rec.delivered() == 1 }) // node 1 now sits in its first delivery
		for i := 1; i < burst; i++ {
			a.SendPeer(1, i)
		}
		close(gate)
		waitFor(t, func() bool { return rec.delivered() == burst })
		tr.Stop()
		largest := 0
		for _, n := range rec.cycles {
			if n > largest {
				largest = n
			}
		}
		if batch && (largest > maxSlab || largest < 2) {
			t.Fatalf("Batch on: largest cycle took %d envelopes, want 2..%d (cycles %v)", largest, maxSlab, rec.cycles)
		}
		if !batch && largest != 1 {
			t.Fatalf("Batch off: a cycle took %d envelopes, want exactly 1", largest)
		}
		for i, v := range rec.got {
			if v != i {
				t.Fatalf("batch=%v: message %d delivered at position %d", batch, v, i)
			}
		}
	}
}

// TestGovernorBalancedAfterDrainedBurst: every charge taken at admission is
// released at dispatch, so a drained tree holds no resident bytes.
func TestGovernorBalancedAfterDrainedBurst(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2, Batch: true})
	rec := &cycleRecorder{}
	tr.Start(func(n *Node) Handler { return rec })
	defer tr.Stop()
	const burst = 1000
	for i := 0; i < burst; i++ {
		tr.FirstLayer()[i%4].SendPeer(1, i) // an int prices as a data-lane message
	}
	waitFor(t, func() bool { return rec.delivered() == burst })
	waitFor(t, func() bool { return tr.gov.used.Load() == 0 })
	gs := tr.gov.stats()
	if gs.HighWater <= 0 {
		t.Fatal("burst was never charged")
	}
	for c := 0; c < govClasses; c++ {
		if d := tr.gov.classDepth[c].Load(); d != 0 {
			t.Fatalf("class %s still holds %d messages", govClassNames[c], d)
		}
	}
}

type nopHandler struct{}

func (nopHandler) FromRank(int, any)  {}
func (nopHandler) FromChild(int, any) {}
func (nopHandler) FromParent(any)     {}
func (nopHandler) FromPeer(int, any)  {}
func (nopHandler) Control(any)        {}

// TestTreeBuildIsCheapWithoutFaultPlan pins what decides the tool tail at
// scale: without a fault plan or link delay a tree costs one goroutine per
// node and no pump, and building the 1024-leaf tree allocates under 2 MB
// (17 MB when every mailbox slot was a whole envelope and every link a
// pumped channel pair). Stop returns every goroutine.
func TestTreeBuildIsCheapWithoutFaultPlan(t *testing.T) {
	const slack = 4 // runtime helpers that may start meanwhile
	for _, tc := range []struct {
		leaves   int
		maxBytes uint64
	}{{1024, 2 << 20}, {4096, 8 << 20}} {
		runtime.GC()
		before := runtime.NumGoroutine()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr := New(Config{Leaves: tc.leaves, FanIn: 4, Batch: true})
		tr.Start(func(n *Node) Handler { return nopHandler{} })
		runtime.ReadMemStats(&m1)
		started := runtime.NumGoroutine() - before
		if started > tr.NumNodes()+slack {
			t.Errorf("%d leaves: %d goroutines for %d nodes — pumps running without a fault plan?",
				tc.leaves, started, tr.NumNodes())
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > tc.maxBytes {
			t.Errorf("%d leaves: New+Start allocated %d bytes, want under %d", tc.leaves, got, tc.maxBytes)
		}
		tr.Stop()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+slack && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+slack {
			t.Errorf("%d leaves: %d goroutines before, %d after Stop", tc.leaves, before, n)
		}
	}
}

// TestPumpStageOnlyWithDelayOrFaults: a link delay (or a fault plan) puts
// the pump back in front of every queue.
func TestPumpStageOnlyWithDelayOrFaults(t *testing.T) {
	plain := New(Config{Leaves: 4, FanIn: 2})
	defer plain.Stop()
	delayed := New(Config{Leaves: 4, FanIn: 2, LinkDelay: time.Millisecond})
	defer delayed.Stop()
	for _, n := range plain.FirstLayer() {
		if n.fromPeer.stage != nil || n.fromAbove.stage != nil || n.fromBelow.stage != nil {
			t.Fatal("queue without fault plan or delay has a pump stage")
		}
	}
	for _, n := range delayed.FirstLayer() {
		if n.fromPeer.stage == nil || n.fromAbove.stage == nil || n.fromBelow.stage == nil {
			t.Fatal("LinkDelay queue lacks its pump stage")
		}
	}
}
