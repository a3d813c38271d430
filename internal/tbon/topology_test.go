package tbon

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
)

// The topology tests race readers and senders against the runtime topology
// changes — in-process respawn and TCP re-gids — and check what the
// published-value design promises: lock-free readers see whole nodes, and
// no frame is ever sequenced on a link a concurrent change retired.

// rankLog checks per-rank FIFO across every incarnation of a slot.
type rankLog struct {
	mu   sync.Mutex
	last map[int]int
	err  error
}

func (l *rankLog) record(rank, seq int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.last[rank] + 1; seq != want && l.err == nil {
		l.err = fmt.Errorf("rank %d: event %d arrived after %d", rank, seq, l.last[rank])
	}
	l.last[rank] = seq
}

// relay drives every link class: a rank event goes to the next peer and up
// the tree, interior nodes forward up, the root broadcasts every eighth
// message back down, and interior nodes forward broadcasts.
type relay struct {
	n   *Node
	log *rankLog
}

func (h *relay) FromRank(rank int, ev any) {
	seq := ev.(event.Event).TS
	h.log.record(rank, seq)
	h.n.SendPeer((h.n.Index()+1)%h.n.NumPeers(), seq)
	h.n.SendUp(seq)
}

func (h *relay) FromChild(_ int, msg any) {
	if !h.n.IsRoot() {
		h.n.SendUp(msg)
	} else if msg.(int)%8 == 0 {
		h.n.Broadcast(msg)
	}
}

func (h *relay) FromParent(msg any) { h.n.Broadcast(msg) }
func (h *relay) FromPeer(int, any)  {}
func (h *relay) Control(any)        {}

func idle(tr *Tree) func() bool {
	return func() bool { _, ok := tr.Idle(); return ok }
}

// TestTopologyReadersDuringRespawn: ranks inject, handlers send on every
// link class, and this goroutine reads FirstLayer() and Children() while it
// crashes first-layer nodes over and over for the supervisor to respawn.
// Every rank's events arrive exactly once and in order, and the tree goes
// idle.
func TestTopologyReadersDuringRespawn(t *testing.T) {
	const leaves, kills = 16, 6
	tr := New(Config{Leaves: leaves, FanIn: 2, Batch: true, Fault: &fault.Plan{
		Seed:      1,
		Recover:   true,
		Heartbeat: 2 * time.Millisecond,
		// Wide enough that -race scheduler starvation cannot stop a killed
		// loop from exiting before its respawn gives up.
		DeadAfter: 200 * time.Millisecond,
	}})
	log := &rankLog{last: make(map[int]int)}
	tr.Start(func(n *Node) Handler { return &relay{n: n, log: log} })
	defer tr.Stop()

	stop := make(chan struct{})
	sent := make([]int, leaves)
	errs := make(chan error, leaves)
	var ranks sync.WaitGroup
	for r := 0; r < leaves; r++ {
		ranks.Add(1)
		go func(r int) {
			defer ranks.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tr.InjectEvent(r, event.Event{TS: i}); err != nil {
					errs <- fmt.Errorf("rank %d event %d: %v", r, i, err)
					return
				}
				sent[r] = i
				if i%20 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(1))
	killed, lastKill := 0, time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for tr.Counters().Recoveries < kills {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d crashes recovered within 10s", tr.Counters().Recoveries, kills)
		}
		first := tr.FirstLayer()
		for i, n := range first {
			if n.Index() != i || !n.IsFirstLayer() {
				t.Fatalf("FirstLayer()[%d] is node %d/%d", i, n.Layer(), n.Index())
			}
		}
		if len(tr.Root().Children()) == 0 {
			t.Fatal("root lost its children")
		}
		if n := first[rng.Intn(len(first))]; killed < kills && !n.Dead() && time.Since(lastKill) > 15*time.Millisecond {
			n.Kill()
			killed++
			lastKill = time.Now()
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	ranks.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, idle(tr))

	log.mu.Lock()
	defer log.mu.Unlock()
	if log.err != nil {
		t.Fatal(log.err)
	}
	for r := 0; r < leaves; r++ {
		if log.last[r] != sent[r] {
			t.Fatalf("rank %d: %d of %d events delivered", r, log.last[r], sent[r])
		}
	}
}

// counter counts deliveries per (receiving slot, payload) across every
// incarnation of a slot.
type counter struct {
	mu  sync.Mutex
	got map[[2]int]int
}

type countNode struct {
	n *Node
	c *counter
}

func (h *countNode) add(msg any) {
	h.c.mu.Lock()
	h.c.got[[2]int{h.n.Index(), msg.(int)}]++
	h.c.mu.Unlock()
}
func (h *countNode) FromRank(int, any)       {}
func (h *countNode) FromChild(int, any)      {}
func (h *countNode) FromParent(msg any)      { h.add(msg) }
func (h *countNode) FromPeer(_ int, msg any) { h.add(msg) }
func (h *countNode) Control(any)             {}

// retiredLinks reports a link keyed on a retired gid: a frame a concurrent
// topology change never migrated.
func retiredLinks(tr *Tree, retired map[int]bool) error {
	tr.transport.mu.Lock()
	defer tr.transport.mu.Unlock()
	for k, lo := range tr.transport.links {
		if retired[k.from] || retired[k.to] {
			return fmt.Errorf("link %+v of a retired incarnation holds %d frames", k, len(lo.pend))
		}
	}
	return nil
}

// TestTopologyWrapVersusRekey races wrap and wrapRemote against the two
// topology changes that re-key links, in-process respawn (migrateTo) and
// the TCP re-gid (cutOver). Once the race is over no link is keyed on a
// retired gid, and every frame reached exactly one incarnation: the
// invariant that resolving receivers inside transport.mu keeps.
func TestTopologyWrapVersusRekey(t *testing.T) {
	t.Run("respawn", func(t *testing.T) {
		const victim, perSender, rekeys = 1, 400, 20
		// No heartbeat: this goroutine is the only reaper. DeadAfter only
		// bounds how long a respawn waits for the killed loop to exit.
		tr := New(Config{Leaves: 8, FanIn: 2, Batch: true, Fault: &fault.Plan{Seed: 1, Recover: true, DeadAfter: time.Second}})
		c := &counter{got: make(map[[2]int]int)}
		tr.Start(func(n *Node) Handler { return &countNode{n: n, c: c} })
		defer tr.Stop()

		parent := tr.shape.Load().up[0][victim]
		var senders sync.WaitGroup
		for s, from := range []*Node{tr.FirstLayer()[0], tr.FirstLayer()[2], parent} {
			senders.Add(1)
			go func(s int, from *Node) {
				defer senders.Done()
				for i := 0; i < perSender; i++ {
					if p := s*perSender + i; from == parent {
						from.Broadcast(p)
					} else {
						from.SendPeer(victim, p)
					}
				}
			}(s, from)
		}
		retired := map[int]bool{}
		for i := 0; i < rekeys; i++ {
			old := tr.FirstLayer()[victim]
			tr.reap(old)
			if tr.FirstLayer()[victim] == old {
				t.Fatal("respawn failed")
			}
			retired[old.gid] = true
		}
		senders.Wait()
		if err := retiredLinks(tr, retired); err != nil {
			t.Fatal(err)
		}
		waitFor(t, idle(tr))
		c.mu.Lock()
		defer c.mu.Unlock()
		for p := 0; p < 3*perSender; p++ {
			if n := c.got[[2]int{victim, p}]; n != 1 {
				t.Fatalf("message %d reached the victim's slot %d times, want exactly once", p, n)
			}
		}
	})

	t.Run("regid", func(t *testing.T) {
		const perSender, rekeys = 400, 50
		tr, err := NewNet(Config{Leaves: 8, FanIn: 2, Net: &NetConfig{Role: NetCoordinator, Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Stop()
		// Workers never connect: every frame stays pending, so the
		// outboxes show where each one was sequenced.
		parent := tr.shape.Load().layers[1][0] // hosts leaves 0 and 1
		var senders sync.WaitGroup
		for s := 0; s < 2; s++ {
			senders.Add(1)
			go func(s int) {
				defer senders.Done()
				for i := 0; i < perSender; i++ {
					if s == 0 {
						tr.transport.wrapRemote(1, 2, i)
					} else {
						parent.Broadcast(i)
					}
				}
			}(s)
		}
		retired := map[int]bool{}
		for i := 0; i < rekeys; i++ {
			tp := tr.shape.Load()
			old := tp.layers[0][1]
			tr.net.applyRespawn(wireRespawn{Leaves: []int{1}, NewGids: []int{tp.nextGid}})
			retired[old.gid] = true
		}
		senders.Wait()
		if err := retiredLinks(tr, retired); err != nil {
			t.Fatal(err)
		}
		leaf := tr.FirstLayer()[1].gid
		for _, class := range []fault.Class{fault.RankLink, fault.DownLink} {
			seen := map[any]int{}
			for k, lo := range tr.transport.links {
				if k.to != leaf || k.class != class {
					continue
				}
				for _, p := range lo.pend {
					seen[p.env.msg.(frame).msg]++
				}
			}
			for i := 0; i < perSender; i++ {
				if seen[i] != 1 {
					t.Fatalf("%v frame %d pending %d times toward the leaf's current incarnation, want once", class, i, seen[i])
				}
			}
		}
	})
}
