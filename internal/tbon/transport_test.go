package tbon

import (
	"sync"
	"testing"
	"time"

	"dwst/internal/fault"
)

// The reliable-transport tests drive a real tree under an adversarial
// fault plan and assert the delivery contract the tool protocols assume:
// every tool message arrives exactly once, per-link FIFO order intact.

// sendUpStream sends 0..n-1 up from node src and waits until the parent
// recorder holds n child messages; returns them.
func sendUpStream(t *testing.T, tr *Tree, recs map[*Node]*recorder, src, parent *Node, n int) []any {
	t.Helper()
	for i := 0; i < n; i++ {
		src.SendUp(i)
	}
	pr := recs[parent]
	waitFor(t, func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return len(pr.child) >= n
	})
	// Give duplicates a moment to surface, then snapshot.
	time.Sleep(20 * time.Millisecond)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]any(nil), pr.child...)
}

func assertExactStream(t *testing.T, got []any, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d messages, want exactly %d", len(got), n)
	}
	for i, v := range got {
		if v.(int) != i {
			t.Fatalf("message %d arrived as %v: FIFO violated", i, v)
		}
	}
}

func TestTransportHealsDrops(t *testing.T) {
	tr := New(Config{Leaves: 16, FanIn: 2, Fault: &fault.Plan{
		Seed:  3,
		Rules: []fault.Rule{{Link: fault.UpLink, Drop: 0.2}},
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	src := tr.FirstLayer()[0]
	got := sendUpStream(t, tr, recs, src, src.parent, 200)
	assertExactStream(t, got, 200)
	if tr.Retransmits() == 0 {
		t.Fatal("a 20% drop rate over 200 messages must retransmit")
	}
	if tr.Abandoned() != 0 {
		t.Fatalf("%d frames abandoned; retransmission should heal every drop", tr.Abandoned())
	}
}

func TestTransportDedupsDuplicates(t *testing.T) {
	tr := New(Config{Leaves: 16, FanIn: 2, Fault: &fault.Plan{
		Seed:  4,
		Rules: []fault.Rule{{Dup: 0.5}},
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	src := tr.FirstLayer()[0]
	got := sendUpStream(t, tr, recs, src, src.parent, 200)
	assertExactStream(t, got, 200)
}

func TestTransportResequencesReorders(t *testing.T) {
	tr := New(Config{Leaves: 16, FanIn: 2, Fault: &fault.Plan{
		Seed:  5,
		Rules: []fault.Rule{{Reorder: 0.3, JitterMax: 100 * time.Microsecond}},
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	src := tr.FirstLayer()[0]
	got := sendUpStream(t, tr, recs, src, src.parent, 200)
	assertExactStream(t, got, 200)
}

func TestTransportCombinedFaultsBothDirections(t *testing.T) {
	tr := New(Config{Leaves: 16, FanIn: 2, Fault: &fault.Plan{
		Seed:  6,
		Rules: []fault.Rule{{Drop: 0.1, Dup: 0.1, Reorder: 0.1}},
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	src := tr.FirstLayer()[0]
	got := sendUpStream(t, tr, recs, src, src.parent, 200)
	assertExactStream(t, got, 200)

	// Downward: the root broadcasts 100 messages; each of its direct
	// children must see all of them, exactly once, in order. (Recorders do
	// not cascade, so deeper layers see nothing — that path is exercised
	// end to end by the chaos suite.)
	for i := 0; i < 100; i++ {
		tr.Root().Broadcast(i)
	}
	children := tr.layers[tr.Layers()-2]
	for _, n := range children {
		n := n
		waitFor(t, func() bool {
			recs[n].mu.Lock()
			defer recs[n].mu.Unlock()
			return len(recs[n].parent) >= 100
		})
	}
	time.Sleep(20 * time.Millisecond)
	for _, n := range children {
		recs[n].mu.Lock()
		assertExactStream(t, append([]any(nil), recs[n].parent...), 100)
		recs[n].mu.Unlock()
	}
}

// TestCrashOfRootChildReattachesToRoot crashes a direct child of the root
// (Leaves:8 FanIn:2 → layers 4/2/1, so a layer-1 victim's grandparent IS
// the root): its orphans must be spliced onto the root itself, with frame
// migration preserving at-least-once delivery across the splice.
func TestCrashOfRootChildReattachesToRoot(t *testing.T) {
	var downMu sync.Mutex
	var down []*Node
	tr := New(Config{Leaves: 8, FanIn: 2, Fault: &fault.Plan{
		Seed:      2,
		Heartbeat: 2 * time.Millisecond,
		DeadAfter: 300 * time.Millisecond,
		Crashes:   []fault.Crash{{Layer: 1, Index: 0, After: 5 * time.Millisecond}},
	}, OnNodeDown: func(n *Node) {
		downMu.Lock()
		down = append(down, n)
		downMu.Unlock()
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	victim := tr.layers[1][0]
	root := tr.Root()
	if victim.parent != root {
		t.Fatalf("topology: victim's parent is layer %d, want the root", victim.parent.Layer())
	}
	src := tr.FirstLayer()[0] // child of the victim

	const n = 300
	for i := 0; i < n; i++ {
		src.SendUp(i)
		time.Sleep(50 * time.Microsecond)
	}

	waitFor(t, func() bool {
		downMu.Lock()
		defer downMu.Unlock()
		return len(down) >= 1
	})
	downMu.Lock()
	if down[0] != victim || len(down) != 1 {
		downMu.Unlock()
		t.Fatalf("supervisor reaped %d nodes, want only the victim", len(down))
	}
	downMu.Unlock()
	tr.topo.Lock()
	newParent := src.parent
	spliced := true
	for _, c := range root.children {
		if c == victim {
			spliced = false
		}
	}
	tr.topo.Unlock()
	if newParent != root {
		t.Fatalf("orphan reattached to layer %d index %d, want the root itself",
			newParent.Layer(), newParent.Index())
	}
	if !spliced {
		t.Fatal("dead node still among the root's children")
	}

	// At-least-once across the splice: messages reached the victim before
	// the crash or were replayed straight to the root after it.
	waitFor(t, func() bool {
		recs[victim].mu.Lock()
		recs[root].mu.Lock()
		total := len(recs[victim].child) + len(recs[root].child)
		recs[root].mu.Unlock()
		recs[victim].mu.Unlock()
		return total >= n
	})
	time.Sleep(20 * time.Millisecond)
	seen := map[int]bool{}
	recs[victim].mu.Lock()
	for _, v := range recs[victim].child {
		seen[v.(int)] = true
	}
	recs[victim].mu.Unlock()
	recs[root].mu.Lock()
	for _, v := range recs[root].child {
		seen[v.(int)] = true
	}
	before := len(recs[root].child)
	recs[root].mu.Unlock()
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Fatalf("message %d lost across the crash", i)
		}
	}

	// Post-splice traffic flows leaf → root directly.
	src.SendUp(n)
	waitFor(t, func() bool {
		recs[root].mu.Lock()
		defer recs[root].mu.Unlock()
		return len(recs[root].child) > before
	})
}

func TestCrashReattachesChildrenToGrandparent(t *testing.T) {
	var downMu sync.Mutex
	var down []*Node
	tr := New(Config{Leaves: 16, FanIn: 2, Fault: &fault.Plan{
		Seed:      1,
		Heartbeat: 2 * time.Millisecond,
		// Wide enough that -race scheduler starvation cannot falsely reap
		// a healthy node.
		DeadAfter: 300 * time.Millisecond,
		Crashes:   []fault.Crash{{Layer: 1, Index: 0, After: 5 * time.Millisecond}},
	}, OnNodeDown: func(n *Node) {
		downMu.Lock()
		down = append(down, n)
		downMu.Unlock()
	}})
	recs := startRecording(tr)
	defer tr.Stop()

	victim := tr.layers[1][0]
	grand := tr.layers[2][0]
	src := tr.FirstLayer()[0] // child of the victim

	// Keep a message stream flowing across the crash: every message must
	// survive, delivered to the old parent before the crash or replayed to
	// the grandparent after it.
	const n = 300
	for i := 0; i < n; i++ {
		src.SendUp(i)
		time.Sleep(50 * time.Microsecond)
	}

	waitFor(t, func() bool {
		downMu.Lock()
		defer downMu.Unlock()
		return len(down) >= 1
	})
	downMu.Lock()
	if down[0] != victim || len(down) != 1 {
		downMu.Unlock()
		t.Fatalf("supervisor reaped %d nodes, want only the victim", len(down))
	}
	downMu.Unlock()
	tr.topo.Lock()
	newParent := src.parent
	spliced := true
	for _, c := range grand.children {
		if c == victim {
			spliced = false
		}
	}
	tr.topo.Unlock()
	if newParent != grand {
		t.Fatalf("orphan's parent is layer %d index %d, want the grandparent", newParent.Layer(), newParent.Index())
	}
	if !spliced {
		t.Fatal("dead node still among the grandparent's children")
	}

	// Exactly-once across the splice: the union of messages seen by the
	// victim (before death) and the grandparent (redirected) covers 0..n-1
	// in order, with no message lost.
	waitFor(t, func() bool {
		recs[victim].mu.Lock()
		recs[grand].mu.Lock()
		total := len(recs[victim].child) + len(recs[grand].child)
		recs[grand].mu.Unlock()
		recs[victim].mu.Unlock()
		return total >= n
	})
	time.Sleep(20 * time.Millisecond)
	seen := map[int]bool{}
	recs[victim].mu.Lock()
	for _, v := range recs[victim].child {
		seen[v.(int)] = true
	}
	recs[victim].mu.Unlock()
	recs[grand].mu.Lock()
	// A message delivered to the victim and then replayed to the
	// grandparent is acceptable: delivery is at-least-once across a crash,
	// and the tool's root-side idempotence absorbs it.
	for _, v := range recs[grand].child {
		seen[v.(int)] = true
	}
	before := len(recs[grand].child)
	recs[grand].mu.Unlock()
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Fatalf("message %d lost across the crash", i)
		}
	}

	// Post-splice traffic flows on the new link.
	src.SendUp(n)
	waitFor(t, func() bool {
		recs[grand].mu.Lock()
		defer recs[grand].mu.Unlock()
		return len(recs[grand].child) > before
	})
}

// TestMigrateFrames pins the one frame-migration routine through its three
// callers, on a bare transport: a link's unacknowledged frames move to the
// new key in their original order, numbered from the new link's nextSeq and
// due at once; frames below the watermark are dropped and counted; the
// destination queue is replaced only where the receiver is a different
// Node; the old link is deleted.
func TestMigrateFrames(t *testing.T) {
	type link struct {
		key      linkKey
		first    uint64   // before: nextSeq; after: sequence number of payloads[0]
		payloads []uint64 // before: seq (= payload) of each unacknowledged frame; after: payloads in seq order
		q        *queue
		stays    bool // after: a link the migration must not have touched
	}
	keep := &queue{} // a live receiver's queue
	adopter := &Node{gid: 0, fromBelow: &queue{}}
	neu := &Node{gid: 9, fromBelow: &queue{}, fromAbove: &queue{}, fromPeer: &queue{}}
	up, down, peer, rank := fault.UpLink, fault.DownLink, fault.PeerLink, fault.RankLink
	for _, c := range []struct {
		name    string
		before  []link
		act     func(*transport) int
		after   []link
		dropped int
	}{
		{
			name: "redirect",
			before: []link{
				{key: linkKey{5, 7, up}, first: 7, payloads: []uint64{6, 3, 4}, q: &queue{}},
				{key: linkKey{5, 0, up}, first: 2},
				{key: linkKey{6, 7, up}, first: 1, payloads: []uint64{0}, q: keep},
			},
			act: func(tr *transport) int {
				tr.redirect(&Node{gid: 5}, &Node{gid: 7}, adopter)
				return 0
			},
			after: []link{
				{key: linkKey{5, 0, up}, first: 2, payloads: []uint64{3, 4, 6}, q: adopter.fromBelow},
				{key: linkKey{6, 7, up}, payloads: []uint64{0}, q: keep, stays: true}, // another child's
			},
		},
		{
			name: "migrateTo",
			before: []link{
				{key: linkKey{3, 7, peer}, first: 4, payloads: []uint64{2, 3}, q: &queue{}},
				{key: linkKey{0, 7, down}, first: 1, payloads: []uint64{0}, q: &queue{}},
				{key: linkKey{7, 0, up}, first: 12, payloads: []uint64{11, 10}, q: keep},
				{key: linkKey{7, 3, peer}, first: 5}, // fully acknowledged: deleted, nothing to move
			},
			act: func(tr *transport) int {
				tr.migrateTo(&Node{gid: 7}, neu)
				return 0
			},
			after: []link{
				{key: linkKey{3, 9, peer}, payloads: []uint64{2, 3}, q: neu.fromPeer},
				{key: linkKey{0, 9, down}, payloads: []uint64{0}, q: neu.fromAbove},
				{key: linkKey{9, 0, up}, payloads: []uint64{10, 11}, q: keep}, // outbound: same receiver
			},
		},
		{
			name: "cutOver",
			before: []link{
				{key: linkKey{-1, 7, rank}, first: 6, payloads: []uint64{5, 0, 1, 2, 3, 4}},
				{key: linkKey{2, 7, peer}, first: 4, payloads: []uint64{1, 2, 3}},
				{key: linkKey{-2, 7, rank}, first: 2, payloads: []uint64{0, 1}}, // wholly journal-covered
				{key: linkKey{7, 2, peer}, first: 1, payloads: []uint64{0}, q: keep},
			},
			act: func(tr *transport) int {
				marks := map[linkKey]int64{{-1, 7, rank}: 3, {2, 7, peer}: 2, {-2, 7, rank}: 2}
				return tr.cutOver(7, 9, func(k linkKey) int64 { return marks[k] })
			},
			after: []link{
				{key: linkKey{-1, 9, rank}, payloads: []uint64{3, 4, 5}},
				{key: linkKey{2, 9, peer}, payloads: []uint64{2, 3}},
				{key: linkKey{7, 2, peer}, payloads: []uint64{0}, q: keep, stays: true}, // outbound: not cutOver's
			},
			dropped: 5, // rank-link frames only: the peer frame below its mark goes uncounted
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := &transport{links: make(map[linkKey]*linkOut)}
			later := time.Now().Add(time.Hour)
			for _, l := range c.before {
				lo := tr.link(l.key)
				lo.nextSeq = l.first
				for _, s := range l.payloads {
					lo.pend[s] = &pending{
						env: envelope{from: l.key.from, msg: frame{key: l.key, seq: s, msg: s}},
						q:   l.q, attempts: 3, due: later,
					}
				}
			}
			if got := c.act(tr); got != c.dropped {
				t.Fatalf("dropped = %d, want %d", got, c.dropped)
			}
			if len(tr.links) != len(c.after) {
				t.Fatalf("%d links left, want %d: %v", len(tr.links), len(c.after), tr.links)
			}
			for _, l := range c.after {
				lo := tr.links[l.key]
				if lo == nil || len(lo.pend) != len(l.payloads) {
					t.Fatalf("link %+v = %+v, want %d pendings", l.key, lo, len(l.payloads))
				}
				for i, payload := range l.payloads {
					seq := l.first + uint64(i)
					p := lo.pend[seq]
					if p == nil {
						t.Fatalf("link %+v: no frame at seq %d", l.key, seq)
					}
					if f := p.env.msg.(frame); f.key != l.key || f.seq != seq || f.msg != any(payload) {
						t.Fatalf("link %+v seq %d carries %+v, want payload %d", l.key, seq, f, payload)
					}
					if p.q != l.q {
						t.Fatalf("link %+v seq %d: wrong destination queue", l.key, seq)
					}
					if resendNow := p.attempts == 0 && !p.due.After(time.Now()); resendNow == l.stays {
						t.Fatalf("link %+v seq %d: attempts=%d due=%v, stays=%v", l.key, seq, p.attempts, p.due, l.stays)
					}
				}
				if want := l.first + uint64(len(l.payloads)); !l.stays && lo.nextSeq != want {
					t.Fatalf("link %+v nextSeq = %d, want %d", l.key, lo.nextSeq, want)
				}
			}
		})
	}
}
