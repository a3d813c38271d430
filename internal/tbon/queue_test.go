package tbon

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dwst/internal/fault"
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
// scale: without a fault plan or link delay a started tree costs at most
// GOMAXPROCS worker goroutines, none per node, and no pump, and building the 1024-leaf tree allocates under 2 MB
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
		if procs := runtime.GOMAXPROCS(0); started > procs+slack {
			t.Errorf("%d leaves: %d goroutines for %d nodes at GOMAXPROCS %d — a goroutine per node, or pumps without a fault plan?",
				tc.leaves, started, tr.NumNodes(), procs)
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

// wakeRecorder logs a node's deliveries by link, and the delivery cycles
// (Flush) they fell in. gate, while non-nil, holds the node inside its
// first delivery so traffic can pile up on every link behind it.
type wakeRecorder struct {
	mu     sync.Mutex
	gate   chan struct{}
	log    []wakeEntry
	cycle  int
	cycles [][]string // the links each non-empty cycle served, in order
}

type wakeEntry struct {
	link string
	v    int
}

func (w *wakeRecorder) record(link string, v int) {
	w.mu.Lock()
	gate := w.gate
	w.gate = nil
	w.log = append(w.log, wakeEntry{link, v})
	if w.cycle == len(w.cycles) {
		w.cycles = append(w.cycles, nil)
	}
	if c := w.cycles[w.cycle]; len(c) == 0 || c[len(c)-1] != link {
		w.cycles[w.cycle] = append(c, link)
	}
	w.mu.Unlock()
	if gate != nil {
		<-gate
	}
}

func (w *wakeRecorder) FromRank(int, any)        {}
func (w *wakeRecorder) FromPeer(_ int, msg any)  { w.record("peer", msg.(int)) }
func (w *wakeRecorder) FromParent(msg any)       { w.record("parent", msg.(int)) }
func (w *wakeRecorder) FromChild(_ int, msg any) { w.record("child", msg.(int)) }
func (w *wakeRecorder) Control(msg any)          { w.record("control", msg.(int)) }
func (w *wakeRecorder) delivered() int           { w.mu.Lock(); defer w.mu.Unlock(); return len(w.log) }
func (w *wakeRecorder) Flush() {
	w.mu.Lock()
	if w.cycle < len(w.cycles) {
		w.cycle++
	}
	w.mu.Unlock()
}

// TestNodeWakeServesEveryQueue: a first-layer node's peer, parent and child
// queues share one wake token. With a backlog on all three, filled by
// concurrent senders, and control messages pending too, the node delivers
// everything, in per-link FIFO order; one wake serves every non-empty queue
// in the same delivery cycle, so no queue falls more than two slabs behind
// another while both hold envelopes.
func TestNodeWakeServesEveryQueue(t *testing.T) {
	const perLink, controls = 3*maxSlab + 17, 12
	tr := New(Config{Leaves: 4, FanIn: 2, Batch: true})
	gate := make(chan struct{})
	rec := &wakeRecorder{gate: gate}
	a := tr.FirstLayer()[0]
	tr.Start(func(n *Node) Handler {
		if n == a {
			return rec
		}
		return nopHandler{}
	})
	defer tr.Stop()
	tr.FirstLayer()[1].SendPeer(0, -1)
	waitFor(t, func() bool { return rec.delivered() == 1 }) // the node now sits in that delivery
	links := []struct {
		name  string
		class fault.Class
	}{{"peer", fault.PeerLink}, {"parent", fault.DownLink}, {"child", fault.UpLink}}
	var wg sync.WaitGroup // one sender per link, all raising the one token
	for _, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLink; i++ {
				a.inbox(l.class).send(envelope{from: 1, msg: i}, tr.quit)
			}
		}()
	}
	for i := 0; i < controls; i++ {
		tr.Control(a, i)
	}
	wg.Wait()
	close(gate)
	waitFor(t, func() bool { return rec.delivered() == 1+3*perLink+controls })
	waitFor(t, func() bool { _, idle := tr.Idle(); return idle })

	rec.mu.Lock()
	defer rec.mu.Unlock()
	next := map[string]int{"peer": -1}
	for i, e := range rec.log {
		if e.v != next[e.link] {
			t.Fatalf("delivery %d: %s message %d when %d was due", i, e.link, e.v, next[e.link])
		}
		next[e.link]++
		for _, l := range links {
			if lag := next[e.link] - next[l.name]; e.link != "control" && next[l.name] < perLink && lag > 2*maxSlab {
				t.Fatalf("delivery %d: %s is %d messages ahead of %s, which still holds some", i, e.link, lag, l.name)
			}
		}
	}
	all := false
	for _, c := range rec.cycles {
		if slices.Equal(c, []string{"peer", "parent", "child"}) {
			all = true
		}
	}
	if !all {
		t.Fatalf("no delivery cycle served peer, parent and child in that order: %v", rec.cycles)
	}
}
