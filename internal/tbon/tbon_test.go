package tbon

import (
	"sync"
	"testing"
	"time"

	"dwst/internal/event"
)

// recorder collects everything a node sees, tagged by source kind.
type recorder struct {
	n  *Node
	mu sync.Mutex

	rank   []any
	child  []any
	parent []any
	peer   []any
	ctrl   []any
}

func (r *recorder) FromRank(rank int, ev any) {
	r.mu.Lock()
	r.rank = append(r.rank, ev)
	r.mu.Unlock()
}
func (r *recorder) FromChild(c int, msg any) {
	r.mu.Lock()
	r.child = append(r.child, msg)
	r.mu.Unlock()
}
func (r *recorder) FromParent(msg any)      { r.mu.Lock(); r.parent = append(r.parent, msg); r.mu.Unlock() }
func (r *recorder) FromPeer(p int, msg any) { r.mu.Lock(); r.peer = append(r.peer, msg); r.mu.Unlock() }
func (r *recorder) Control(msg any)         { r.mu.Lock(); r.ctrl = append(r.ctrl, msg); r.mu.Unlock() }

func startRecording(t *Tree) map[*Node]*recorder {
	recs := map[*Node]*recorder{}
	var mu sync.Mutex
	t.Start(func(n *Node) Handler {
		r := &recorder{n: n}
		mu.Lock()
		recs[n] = r
		mu.Unlock()
		return r
	})
	return recs
}

func TestTopologyShapes(t *testing.T) {
	cases := []struct {
		leaves, fanIn int
		wantLayers    int
		wantFirst     int
		wantNodes     int
	}{
		{leaves: 2, fanIn: 2, wantLayers: 1, wantFirst: 1, wantNodes: 1},
		{leaves: 4, fanIn: 2, wantLayers: 2, wantFirst: 2, wantNodes: 3},
		{leaves: 16, fanIn: 2, wantLayers: 4, wantFirst: 8, wantNodes: 15},
		{leaves: 16, fanIn: 4, wantLayers: 2, wantFirst: 4, wantNodes: 5},
		{leaves: 17, fanIn: 4, wantLayers: 3, wantFirst: 5, wantNodes: 8},
		{leaves: 4096, fanIn: 8, wantLayers: 4, wantFirst: 512, wantNodes: 512 + 64 + 8 + 1},
	}
	for _, c := range cases {
		tr := New(Config{Leaves: c.leaves, FanIn: c.fanIn})
		if got := tr.Layers(); got != c.wantLayers {
			t.Errorf("leaves=%d fanIn=%d: layers=%d want %d", c.leaves, c.fanIn, got, c.wantLayers)
		}
		if got := len(tr.FirstLayer()); got != c.wantFirst {
			t.Errorf("leaves=%d fanIn=%d: first layer=%d want %d", c.leaves, c.fanIn, got, c.wantFirst)
		}
		if got := tr.NumNodes(); got != c.wantNodes {
			t.Errorf("leaves=%d fanIn=%d: nodes=%d want %d", c.leaves, c.fanIn, got, c.wantNodes)
		}
		if !tr.Root().IsRoot() {
			t.Errorf("leaves=%d fanIn=%d: root is not root", c.leaves, c.fanIn)
		}
	}
}

func TestRankAssignment(t *testing.T) {
	tr := New(Config{Leaves: 10, FanIn: 4})
	wants := map[int][]int{0: {0, 1, 2, 3}, 1: {4, 5, 6, 7}, 2: {8, 9}}
	for idx, want := range wants {
		got := tr.RanksOf(idx)
		if len(got) != len(want) {
			t.Fatalf("node %d hosts %v, want %v", idx, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d hosts %v, want %v", idx, got, want)
			}
		}
	}
	for r := 0; r < 10; r++ {
		if tr.NodeFor(r) != r/4 {
			t.Fatalf("NodeFor(%d) = %d", r, tr.NodeFor(r))
		}
	}
}

func TestInjectReachesHostNodeInOrder(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 4})
	recs := startRecording(tr)
	defer tr.Stop()

	for i := 0; i < 100; i++ {
		tr.InjectEvent(5, event.Event{TS: i})
	}
	host := tr.FirstLayer()[1]
	waitFor(t, func() bool {
		recs[host].mu.Lock()
		defer recs[host].mu.Unlock()
		return len(recs[host].rank) == 100
	})
	recs[host].mu.Lock()
	defer recs[host].mu.Unlock()
	for i, v := range recs[host].rank {
		if v.(event.Event).TS != i {
			t.Fatalf("event %d out of order: %v", i, v)
		}
	}
}

func TestSendUpReachesRoot(t *testing.T) {
	tr := New(Config{Leaves: 16, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()

	// Every first-layer node sends a message up; intermediate recorders do
	// not forward, so check the second layer received from both children.
	for _, n := range tr.FirstLayer() {
		n.SendUp("hello")
	}
	second := tr.shape.Load().layers[1]
	waitFor(t, func() bool {
		total := 0
		for _, n := range second {
			recs[n].mu.Lock()
			total += len(recs[n].child)
			recs[n].mu.Unlock()
		}
		return total == len(tr.FirstLayer())
	})
}

func TestRootSelfSendUp(t *testing.T) {
	tr := New(Config{Leaves: 2, FanIn: 2}) // single node: first layer == root
	recs := startRecording(tr)
	defer tr.Stop()
	root := tr.Root()
	if !root.IsFirstLayer() {
		t.Fatal("expected single-node tree")
	}
	root.SendUp("agg")
	waitFor(t, func() bool {
		recs[root].mu.Lock()
		defer recs[root].mu.Unlock()
		return len(recs[root].child) == 1
	})
}

func TestBroadcastReachesFirstLayer(t *testing.T) {
	tr := New(Config{Leaves: 32, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()

	// Manually cascade: each recorder does not forward, so walk layers and
	// broadcast from each. Instead, emulate the forwarding pattern the tool
	// uses: broadcast from the root, then from each node that received it.
	tr.Root().Broadcast("ack")
	// Forward down layer by layer.
	for layer := tr.Layers() - 2; layer >= 1; layer-- {
		nodes := tr.shape.Load().layers[layer]
		waitFor(t, func() bool {
			for _, n := range nodes {
				recs[n].mu.Lock()
				l := len(recs[n].parent)
				recs[n].mu.Unlock()
				if l == 0 {
					return false
				}
			}
			return true
		})
		for _, n := range nodes {
			n.Broadcast("ack")
		}
	}
	waitFor(t, func() bool {
		for _, n := range tr.FirstLayer() {
			recs[n].mu.Lock()
			l := len(recs[n].parent)
			recs[n].mu.Unlock()
			if l == 0 {
				return false
			}
		}
		return true
	})
}

func TestIntralayerFIFOAndSelfSend(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()

	a := tr.FirstLayer()[0]
	b := tr.FirstLayer()[3]
	for i := 0; i < 50; i++ {
		a.SendPeer(3, i)
	}
	a.SendPeer(0, "self")
	waitFor(t, func() bool {
		recs[b].mu.Lock()
		defer recs[b].mu.Unlock()
		return len(recs[b].peer) == 50
	})
	recs[b].mu.Lock()
	for i, v := range recs[b].peer {
		if v.(int) != i {
			t.Fatalf("peer msg %d out of order: %v", i, v)
		}
	}
	recs[b].mu.Unlock()
	waitFor(t, func() bool {
		recs[a].mu.Lock()
		defer recs[a].mu.Unlock()
		return len(recs[a].peer) == 1
	})
}

func TestIntralayerCycleDoesNotDeadlock(t *testing.T) {
	// Two nodes flooding each other must not wedge: tool-internal links are
	// unbounded pumped queues.
	tr := New(Config{Leaves: 4, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()
	a, b := tr.FirstLayer()[0], tr.FirstLayer()[1]
	const n = 20000
	done := make(chan struct{}, 2)
	go func() {
		for i := 0; i < n; i++ {
			a.SendPeer(1, i)
		}
		done <- struct{}{}
	}()
	go func() {
		for i := 0; i < n; i++ {
			b.SendPeer(0, i)
		}
		done <- struct{}{}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("intralayer flood deadlocked")
		}
	}
	waitFor(t, func() bool {
		recs[a].mu.Lock()
		la := len(recs[a].peer)
		recs[a].mu.Unlock()
		recs[b].mu.Lock()
		lb := len(recs[b].peer)
		recs[b].mu.Unlock()
		return la == n && lb == n
	})
}

// TestControlDelivery: control messages reach the root and a leaf; sent
// from several goroutines at once, each goroutine's arrive in the order it
// sent them. A node's control lane (its lifecycle) is made by the first
// message sent to it: the nodes nobody sent one have none.
func TestControlDelivery(t *testing.T) {
	tr := New(Config{Leaves: 8, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()
	tr.Control(tr.Root(), "detect")
	const senders, each = 4, 100
	leaf := tr.FirstLayer()[1]
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Control(leaf, [2]int{g, i})
			}
		}(g)
	}
	wg.Wait()
	for n, want := range map[*Node]int{tr.Root(): 1, leaf: senders * each} {
		waitFor(t, func() bool {
			recs[n].mu.Lock()
			defer recs[n].mu.Unlock()
			return len(recs[n].ctrl) == want
		})
	}
	next := make([]int, senders)
	for _, m := range recs[leaf].ctrl {
		gi := m.([2]int)
		if gi[1] != next[gi[0]] {
			t.Fatalf("sender %d: message %d arrived when %d was due", gi[0], gi[1], next[gi[0]])
		}
		next[gi[0]]++
	}
	for _, layer := range tr.shape.Load().layers {
		for _, n := range layer {
			if made := n.life.Load() != nil; made != (n == leaf || n == tr.Root()) {
				t.Errorf("node (%d,%d): lifecycle made=%v", n.layer, n.index, made)
			}
		}
	}
}

func TestQuiescenceCounters(t *testing.T) {
	tr := New(Config{Leaves: 4, FanIn: 2})
	recs := startRecording(tr)
	defer tr.Stop()
	for i := 0; i < 10; i++ {
		tr.InjectEvent(0, event.Event{TS: i})
	}
	<-tr.NotifyIdle()
	host := recs[tr.FirstLayer()[0]]
	host.mu.Lock()
	defer host.mu.Unlock()
	if _, idle := tr.Idle(); !idle || len(host.rank) != 10 {
		t.Fatalf("idle=%v with %d of 10 events handled", idle, len(host.rank))
	}
}

// blockingHandler blocks in FromRank until released, to exercise event-link
// backpressure.
type blockingHandler struct {
	release chan struct{}
	seen    chan struct{}
}

func (h *blockingHandler) FromRank(rank int, ev any) {
	h.seen <- struct{}{}
	<-h.release
}
func (h *blockingHandler) FromChild(int, any) {}
func (h *blockingHandler) FromParent(any)     {}
func (h *blockingHandler) FromPeer(int, any)  {}
func (h *blockingHandler) Control(any)        {}

func TestEventBackpressure(t *testing.T) {
	tr := New(Config{Leaves: 2, FanIn: 2, EventBuf: 4})
	h := &blockingHandler{release: make(chan struct{}), seen: make(chan struct{}, 1000)}
	tr.Start(func(n *Node) Handler { return h })
	defer tr.Stop()

	injected := make(chan int, 1)
	go func() {
		count := 0
		for i := 0; i < 100; i++ {
			tr.InjectEvent(0, event.Event{TS: i})
			count++
		}
		injected <- count
	}()
	<-h.seen // handler is now blocked in the first event
	select {
	case n := <-injected:
		t.Fatalf("injector finished (%d events) despite a blocked tool node", n)
	case <-time.After(50 * time.Millisecond):
		// Expected: injection stalled after filling the buffer.
	}
	close(h.release)
	go func() {
		for range h.seen {
		}
	}()
	select {
	case <-injected:
	case <-time.After(5 * time.Second):
		t.Fatal("injection never completed after release")
	}
}

func TestLinkDelayPreservesFIFO(t *testing.T) {
	tr := New(Config{Leaves: 4, FanIn: 2, LinkDelay: time.Millisecond})
	recs := startRecording(tr)
	defer tr.Stop()
	a := tr.FirstLayer()[0]
	start := time.Now()
	for i := 0; i < 5; i++ {
		a.SendPeer(1, i)
	}
	b := tr.FirstLayer()[1]
	waitFor(t, func() bool {
		recs[b].mu.Lock()
		defer recs[b].mu.Unlock()
		return len(recs[b].peer) == 5
	})
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("link delay not applied")
	}
	recs[b].mu.Lock()
	defer recs[b].mu.Unlock()
	for i, v := range recs[b].peer {
		if v.(int) != i {
			t.Fatalf("delayed link broke FIFO: msg %d = %v", i, v)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
