package tbon

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/dws"
)

func TestMsgCostLanes(t *testing.T) {
	control := []any{
		dws.Ping{}, dws.Pong{}, dws.RequestConsistentState{},
		dws.AckConsistentState{}, dws.RequestWaits{}, dws.AbortSnapshot{},
		dws.PeerDown{}, dws.RankDown{}, collmatch.Resync{},
	}
	for _, m := range control {
		if c := msgCost(m); c != 0 {
			t.Errorf("control message %T costs %d, want 0", m, c)
		}
		if c := envCost(m); c != 0 {
			t.Errorf("control envelope %T costs %d, want 0", m, c)
		}
	}
	data := []any{
		dws.PassSend{}, dws.RecvActive{}, dws.RecvActiveAck{},
		dws.WaitEntry{}, dws.WaitReport{}, struct{ X int }{},
	}
	for _, m := range data {
		if c := msgCost(m); c <= 0 {
			t.Errorf("data message %T costs %d, want > 0", m, c)
		}
		if ec, mc := envCost(m), msgCost(m); ec != envCostOverhead+mc {
			t.Errorf("data envelope %T costs %d, want %d", m, ec, envCostOverhead+mc)
		}
	}
}

func TestMsgCostBatchAndFrames(t *testing.T) {
	b := dws.Batch{Msgs: []dws.PeerMsg{{Type: dws.PeerPassSend}, {Type: dws.PeerPing}}}
	want := int64(64) + (96 + 16) + (32 + 16) // base + PassSend slot + control slot
	if c := msgCost(b); c != want {
		t.Errorf("batch cost %d, want %d", c, want)
	}
	// A type no sender writes (a corrupt payload off the wire) prices its
	// slot alone instead of panicking.
	if c := msgCost(dws.Batch{Msgs: []dws.PeerMsg{{Type: 255}}}); c != 64+16 {
		t.Errorf("batch of an unknown type costs %d, want %d", c, 64+16)
	}
	// A transport frame must price like its payload: the reliable layer
	// wrapping a message does not change what it costs to buffer.
	if fc, mc := envCost(frame{msg: dws.PassSend{}}), envCost(dws.PassSend{}); fc != mc {
		t.Errorf("framed PassSend costs %d, bare costs %d", fc, mc)
	}
	if c := envCost(frame{msg: dws.Ping{}}); c != 0 {
		t.Errorf("framed control message costs %d, want 0", c)
	}
	r := dws.WaitReport{Entries: make([]dws.WaitEntry, 3)}
	if c := msgCost(r); c != 96+3*msgCostEntry {
		t.Errorf("wait report cost %d, want %d", c, 96+3*msgCostEntry)
	}
}

func TestGovernorHysteresisAndOverflow(t *testing.T) {
	g := newGovernor(1000) // hi=750, lo=500
	g.charge(govUp, 700)
	if g.gateEngaged() {
		t.Fatal("gate engaged below hi threshold")
	}
	g.charge(govUp, 100) // used=800 >= hi
	if !g.gateEngaged() {
		t.Fatal("gate not engaged at 800/1000")
	}
	if got := g.overflow.Load(); got != 0 {
		t.Fatalf("overflow %d under budget, want 0", got)
	}
	g.charge(govDown, 300) // used=1100 > budget
	if got := g.overflow.Load(); got != 1 {
		t.Fatalf("overflow %d over budget, want 1", got)
	}
	g.release(govDown, 300)
	g.release(govUp, 200) // used=600 > lo: still engaged
	if !g.gateEngaged() {
		t.Fatal("gate reopened above lo threshold")
	}
	g.release(govUp, 200) // used=400 <= lo
	if g.gateEngaged() {
		t.Fatal("gate still engaged after draining below lo")
	}

	st := g.stats()
	if st.Budget != 1000 || st.HighWater != 1100 || st.Used != 400 {
		t.Fatalf("stats budget/hw/used = %d/%d/%d, want 1000/1100/400",
			st.Budget, st.HighWater, st.Used)
	}
	if st.QueueBytesHW["up"] != 800 || st.QueueBytesHW["down"] != 300 {
		t.Fatalf("class byte HW = %v", st.QueueBytesHW)
	}
	if st.QueueDepthHW["up"] != 2 || st.QueueDepthHW["down"] != 1 {
		t.Fatalf("class depth HW = %v", st.QueueDepthHW)
	}
}

func TestAdmitIntakeGate(t *testing.T) {
	g := newGovernor(1000)
	dead := make(chan struct{})
	quit := make(chan struct{})

	// Open gate: admit immediately, no gated-wait counted.
	if !g.admitIntake(dead, quit) {
		t.Fatal("open gate refused intake")
	}
	if g.gated.Load() != 0 {
		t.Fatal("open-gate admission counted as a gated wait")
	}

	g.charge(govUp, 900) // engage
	var admitted atomic.Bool
	done := make(chan bool, 1)
	go func() {
		ok := g.admitIntake(dead, quit)
		admitted.Store(true)
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	if admitted.Load() {
		t.Fatal("intake admitted with the gate engaged")
	}
	g.release(govUp, 900) // drain to 0: reopen wakes the waiter
	if ok := <-done; !ok {
		t.Fatal("reopened gate reported stop")
	}
	if g.gated.Load() == 0 {
		t.Fatal("gated wait not counted")
	}

	// A dead node releases its waiter (admit; the caller's own dead-node
	// path runs), and quit refuses (the tree is stopping).
	g.charge(govUp, 900)
	deadCh := make(chan struct{})
	close(deadCh)
	if !g.admitIntake(deadCh, quit) {
		t.Fatal("dead channel should release the waiter as admitted")
	}
	quitCh := make(chan struct{})
	close(quitCh)
	if g.admitIntake(dead, quitCh) {
		t.Fatal("closed quit should refuse intake")
	}
}

func TestSendqByteCapOverflowCut(t *testing.T) {
	g := newGovernor(1 << 20)
	sq := newSendq(g, 100)
	var cut atomic.Int32
	sq.onFull = func(net.Conn) { cut.Add(1) }
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	sq.attach(c1)

	// A single frame larger than the cap is accepted on an empty queue —
	// the retransmitter must be able to ship it after reconnect.
	sq.push(make([]byte, 200))
	if cut.Load() != 0 {
		t.Fatal("oversized frame on empty queue triggered the cut")
	}
	if sq.bytes != 200 {
		t.Fatalf("queued bytes %d, want 200", sq.bytes)
	}
	if hw := g.stats().QueueBytesHW["wire"]; hw != 200 {
		t.Fatalf("wire byte HW %d, want 200", hw)
	}

	// The next frame overflows a non-empty queue: frames drop, their bytes
	// return to the budget, the overflow is counted, the cut fires.
	sq.push(make([]byte, 50))
	if cut.Load() != 1 {
		t.Fatalf("cut fired %d times, want 1", cut.Load())
	}
	if sq.bytes != 0 || len(sq.q) != 0 {
		t.Fatalf("queue not dropped: %d bytes, %d frames", sq.bytes, len(sq.q))
	}
	if used := g.used.Load(); used != 0 {
		t.Fatalf("governor still holds %d bytes after the cut", used)
	}
	if ov := g.overflow.Load(); ov != 1 {
		t.Fatalf("overflow %d, want 1", ov)
	}
}

func TestGovernorBudgetZeroIsDefaultNegativeRejected(t *testing.T) {
	tr, err := NewNet(Config{Leaves: 4, FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	if tr.gov.budget != DefaultMemBudget {
		t.Fatalf("zero MemBudget governs at %d, want DefaultMemBudget", tr.gov.budget)
	}
	if _, err := NewNet(Config{Leaves: 4, FanIn: 2, MemBudget: -1}); err == nil {
		t.Fatal("negative MemBudget accepted")
	}
}
