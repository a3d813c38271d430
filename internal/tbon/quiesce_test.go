package tbon

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/testseed"
)

// spawnMsg is one message of the quiescence property test's cascades.
type spawnMsg struct{ depth int }

// cascade counts what the spawners did: messages sent (counted before the
// send) and handled, and the handlers running right now.
type cascade struct {
	sent, handled, active atomic.Int64
}

// spawner is the property test's handler: every delivery spawns 0–2
// messages to random peers, the parent or the children, up to a depth
// bound; half of them leave at once, half in Flush at the end of the
// delivery cycle, as the wait-state tracker's coalesced output does.
type spawner struct {
	n        *Node
	c        *cascade
	rng      *rand.Rand
	maxDepth int
	held     []spawnMsg
}

func (s *spawner) handle(depth int) {
	s.c.active.Add(1)
	defer s.c.active.Add(-1)
	s.c.handled.Add(1)
	if depth >= s.maxDepth {
		return
	}
	for k := s.rng.Intn(3); k > 0; k-- {
		m := spawnMsg{depth: depth + 1}
		if s.rng.Intn(2) == 0 {
			s.held = append(s.held, m)
			continue
		}
		s.send(m)
	}
}

func (s *spawner) send(m spawnMsg) {
	switch r := s.rng.Intn(3); {
	case r == 0 && s.n.IsFirstLayer():
		s.c.sent.Add(1)
		s.n.SendPeer(s.rng.Intn(s.n.NumPeers()), m)
	case r == 1 && !s.n.IsFirstLayer():
		s.c.sent.Add(int64(len(s.n.Children())))
		s.n.Broadcast(m)
	default:
		s.c.sent.Add(1)
		s.n.SendUp(m)
	}
}

// Flush is handler activity too, and a slow one: a tree that retired the
// cycle before its Flush ran would look idle for the whole pause.
func (s *spawner) Flush() {
	if len(s.held) == 0 {
		return
	}
	s.c.active.Add(1)
	defer s.c.active.Add(-1)
	time.Sleep(50 * time.Microsecond)
	for _, m := range s.held {
		s.send(m)
	}
	s.held = s.held[:0]
}

func (s *spawner) FromRank(int, any)              { s.handle(0) }
func (s *spawner) FromChild(_ int, msg any)       { s.handle(msg.(spawnMsg).depth) }
func (s *spawner) FromParent(msg any)             { s.handle(msg.(spawnMsg).depth) }
func (s *spawner) FromPeer(_ int, msg any)        { s.handle(msg.(spawnMsg).depth) }
func (s *spawner) Control(any)                    {}
func (s *spawner) FromRankEvent(int, event.Event) { s.handle(0) }

// epochIdle reads the tree's idle epoch and idleness in one load: two idle
// readings with the same epoch bracket a period with no work at all.
func epochIdle(tr *Tree) (epoch uint64, idle bool) {
	v := tr.work.Load()
	return v / epochUnit, v&countsMask == 0
}

// idleWithin is the bounded wait on the tree's idle signal: true once the
// tree is idle, false when d passed first.
func idleWithin(tr *Tree, d time.Duration) bool {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		select {
		case <-tr.NotifyIdle():
			if _, idle := tr.Idle(); idle {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}

// drained checks what an idle tree must show: no handler running, every
// message sent handled, nothing in any queue, pump intake or outbox.
func drained(tr *Tree, c *cascade) error {
	if a := c.active.Load(); a != 0 {
		return fmt.Errorf("idle with %d handlers running", a)
	}
	if s, h := c.sent.Load(), c.handled.Load(); s != h {
		return fmt.Errorf("idle with %d messages sent but %d handled", s, h)
	}
	if err := queuesEmpty(tr); err != nil {
		return err
	}
	if tr.transport != nil {
		tr.transport.mu.Lock()
		defer tr.transport.mu.Unlock()
		for k, lo := range tr.transport.links {
			if len(lo.pend) > 0 {
				return fmt.Errorf("idle with %d frames unacknowledged on %+v", len(lo.pend), k)
			}
		}
	}
	return nil
}

func queuesEmpty(tr *Tree) error {
	for _, l := range tr.shape.Load().layers {
		for _, n := range l {
			if len(n.events) > 0 || len(n.control) > 0 {
				return fmt.Errorf("idle with node %d's mailbox or control channel non-empty", n.gid)
			}
			for _, q := range []*queue{n.fromBelow, n.fromAbove, n.fromPeer} {
				if q == nil {
					continue
				}
				q.mu.Lock()
				p := len(q.pending)
				q.mu.Unlock()
				if p > 0 || len(q.stage) > 0 {
					return fmt.Errorf("idle with node %d's queue holding %d pending, %d staged", n.gid, p, len(q.stage))
				}
			}
		}
	}
	return nil
}

// quiescenceRun drives one seed: rounds of injected cascades, each waited
// out on the idle signal and checked, while an observer checks every idle
// edge it sees: with the same epoch idle on both sides of its reads, no
// handler may run and no queue may hold anything.
func quiescenceRun(seed int64, cfg Config, maxDepth int) error {
	rng := rand.New(rand.NewSource(seed))
	cfg.FanIn = 2 + rng.Intn(3)
	cfg.Leaves = cfg.FanIn + rng.Intn(4*cfg.FanIn)
	cfg.Batch = true
	tr := New(cfg)
	c := &cascade{}
	tr.Start(func(n *Node) Handler {
		return &spawner{n: n, c: c, rng: rand.New(rand.NewSource(seed*1000 + int64(n.gid))), maxDepth: maxDepth}
	})
	defer tr.Stop()

	var seen error
	var once sync.Once
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-tr.NotifyIdle():
			case <-stop:
				return
			}
			e1, i1 := epochIdle(tr)
			active := c.active.Load()
			qerr := queuesEmpty(tr)
			e2, i2 := epochIdle(tr)
			if i1 && i2 && e1 == e2 {
				if active != 0 {
					once.Do(func() { seen = fmt.Errorf("observer: idle epoch %d with %d handlers running", e1, active) })
				} else if qerr != nil {
					once.Do(func() { seen = fmt.Errorf("observer: %v", qerr) })
				}
			}
			time.Sleep(100 * time.Microsecond) // let the tree move on
		}
	}()
	defer func() { close(stop); <-watched }()

	for round := 0; round < 2; round++ {
		for k := 1 + rng.Intn(6); k > 0; k-- {
			c.sent.Add(1)
			if err := tr.InjectEvent(rng.Intn(cfg.Leaves), event.Event{}); err != nil {
				return err
			}
		}
		if !idleWithin(tr, 10*time.Second) {
			return fmt.Errorf("round %d: no quiescence within 10s", round)
		}
		if err := drained(tr, c); err != nil {
			return fmt.Errorf("round %d: %v", round, err)
		}
	}
	return seen
}

// eachSeed runs fn for seeds [0, n), par at a time (or only the seed
// MUST_TEST_SEED names), reporting each failure with its seed.
func eachSeed(t *testing.T, n int64, par int, fn func(seed int64) error) {
	t.Helper()
	seeds := make([]int64, 0, n)
	if s := os.Getenv(testseed.Env); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", testseed.Env, s, err)
		}
		seeds = append(seeds, seed)
	} else {
		for s := int64(0); s < n; s++ {
			seeds = append(seeds, s)
		}
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, seed := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(seed); err != nil {
				t.Errorf("seed=%d: %v", seed, err)
			}
		}()
	}
	wg.Wait()
}

// TestQuiescenceIsExact: whenever the tree reports idle, nothing is left to
// do — no handler runs, every message sent was handled, no envelope waits
// in a queue, pump or outbox — on a fault-free tree, behind links slower
// than the old 10 ms stability window, and through drops, duplicates and
// reordering healed by retransmission.
func TestQuiescenceIsExact(t *testing.T) {
	t.Run("fault-free", func(t *testing.T) {
		eachSeed(t, 200, 4, func(seed int64) error { return quiescenceRun(seed, Config{}, 4) })
	})
	t.Run("link-delay-15ms", func(t *testing.T) {
		eachSeed(t, 200, 25, func(seed int64) error {
			return quiescenceRun(seed, Config{LinkDelay: 15 * time.Millisecond}, 2)
		})
	})
	t.Run("drop-dup-reorder", func(t *testing.T) {
		eachSeed(t, 200, 8, func(seed int64) error {
			return quiescenceRun(seed, Config{Fault: &fault.Plan{
				Seed:  seed,
				Rules: []fault.Rule{{Drop: 0.05, Dup: 0.05, Reorder: 0.1}},
			}}, 3)
		})
	})
}

// TestQuiescenceGiveUp: a stalled link keeps the tree busy, so the bounded
// wait gives up; once the stall lifts, the tree drains.
func TestQuiescenceGiveUp(t *testing.T) {
	tr := New(Config{Leaves: 4, FanIn: 2, Batch: true, Fault: &fault.Plan{
		Seed:  1,
		Rules: []fault.Rule{{Link: fault.PeerLink, StallEvery: 1, StallFor: 300 * time.Millisecond}},
	}})
	c := &cascade{}
	tr.Start(func(n *Node) Handler {
		return &spawner{n: n, c: c, rng: rand.New(rand.NewSource(int64(n.gid))), maxDepth: 0}
	})
	defer tr.Stop()
	c.sent.Add(1)
	tr.FirstLayer()[0].SendPeer(1, spawnMsg{depth: 0})
	if idleWithin(tr, 50*time.Millisecond) {
		t.Fatal("idle while a stalled link still holds a message")
	}
	if !idleWithin(tr, 10*time.Second) {
		t.Fatal("no quiescence after the stall lifted")
	}
	if err := drained(tr, c); err != nil {
		t.Fatal(err)
	}
}

// TestIdleStampNeverRegresses: a retire that loses the race to a later idle
// edge stamps late; the later epoch's stamp must survive, or the tree would
// read "idle since now" for the whole idle period and never time it out.
func TestIdleStampNeverRegresses(t *testing.T) {
	tr := New(Config{Leaves: 2, FanIn: 2})
	tr.work.Store(2 * epochUnit)
	tr.stampIdle(2 * epochUnit)
	want, _ := tr.Idle()
	time.Sleep(time.Millisecond)
	tr.stampIdle(1 * epochUnit) // the loser of the race
	if since, idle := tr.Idle(); !idle || !since.Equal(want) {
		t.Fatalf("idle=%v since %v after a late stamp of an older epoch, want since %v", idle, since, want)
	}
}
