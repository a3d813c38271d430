package dws

import (
	"math/rand"
	"reflect"
	"testing"

	"dwst/internal/collmatch"
	"dwst/internal/event"
	"dwst/internal/testseed"
	"dwst/internal/trace"
	"dwst/internal/tracegen"
	"dwst/internal/waitstate"
)

// harness drives a set of dws Nodes with deterministic message routing,
// playing the roles of tbon and the root (collective matching registry).
type harness struct {
	t          *testing.T
	nodes      []*Node
	fanIn      int
	root       *collmatch.Root
	peerQ      []peerMsg
	acks       int
	reports    []WaitReport
	mismatches []collmatch.Mismatch
}

type peerMsg struct {
	from, to int
	msg      any
}

type harnessOut struct {
	h  *harness
	id int
}

func (o harnessOut) Peer(node int, msg any) {
	o.h.peerQ = append(o.h.peerQ, peerMsg{from: o.id, to: node, msg: msg})
}

func (o harnessOut) Up(msg any) {
	switch m := msg.(type) {
	case collmatch.Ready:
		acks, mism := o.h.root.OnReady(m)
		if mism != nil {
			o.h.mismatches = append(o.h.mismatches, *mism)
		}
		for _, a := range acks {
			for _, n := range o.h.nodes {
				n.OnCollAck(a)
			}
		}
	case collmatch.Mismatch:
		o.h.mismatches = append(o.h.mismatches, m)
	case collmatch.Member:
		for _, a := range o.h.root.OnMember(m) {
			for _, n := range o.h.nodes {
				n.OnCollAck(a)
			}
		}
	case AckConsistentState:
		_ = m
		o.h.acks++
	case WaitReport:
		o.h.reports = append(o.h.reports, m)
	default:
		o.h.t.Fatalf("unexpected up message %T", msg)
	}
}

// newHarness builds nodes hosting fanIn consecutive ranks each.
func newHarness(t *testing.T, procs, fanIn int) *harness {
	numNodes := (procs + fanIn - 1) / fanIn
	h := &harness{t: t, fanIn: fanIn, root: collmatch.NewRoot(procs, numNodes)}
	nodeFor := func(rank int) int { return rank / fanIn }
	for i := 0; i < numNodes; i++ {
		var hosted []int
		for r := i * fanIn; r < (i+1)*fanIn && r < procs; r++ {
			hosted = append(hosted, r)
		}
		h.nodes = append(h.nodes, NewNode(i, hosted, nodeFor, harnessOut{h: h, id: i}))
	}
	return h
}

func (h *harness) node(rank int) *Node { return h.nodes[rank/h.fanIn] }

// drain delivers queued intralayer messages (FIFO per queue order) until
// quiescent.
func (h *harness) drain() {
	for len(h.peerQ) > 0 {
		m := h.peerQ[0]
		h.peerQ = h.peerQ[1:]
		h.nodes[m.to].OnPeer(m.from, m.msg)
	}
}

func (h *harness) enter(op trace.Op) {
	if op.Kind.IsSend() || op.Kind.IsRecv() {
		if op.PeerWorld == 0 && op.Peer != trace.AnySource {
			op.PeerWorld = op.Peer // world == group in these tests
		}
		if op.Peer == trace.AnySource {
			op.PeerWorld = trace.AnySource
		}
		op.SelfGroup = op.Proc
	}
	h.node(op.Proc).OnEvent(event.Event{Type: event.Enter, Op: op})
}

func (h *harness) status(proc, ts, src int) {
	h.node(proc).OnEvent(event.Event{Type: event.Status, Proc: proc, TS: ts, Src: src})
}

func TestHandshakeAdvancesBothSides(t *testing.T) {
	h := newHarness(t, 2, 1) // rank per node: all messages cross nodes
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Recv, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if got := h.nodes[0].CurrentTS(0); got != 1 {
		t.Fatalf("sender l = %d, want 1", got)
	}
	if got := h.nodes[1].CurrentTS(1); got != 1 {
		t.Fatalf("receiver l = %d, want 1", got)
	}
}

func TestSendBlocksUntilRecvPosted(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.drain()
	if got := h.nodes[0].CurrentTS(0); got != 0 {
		t.Fatalf("send must block, l = %d", got)
	}
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Recv, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if got := h.nodes[0].CurrentTS(0); got != 1 {
		t.Fatalf("send must advance after match, l = %d", got)
	}
}

func TestWildcardRecvNeedsStatus(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Recv, Peer: trace.AnySource, Tag: trace.AnyTag, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.drain()
	if h.nodes[1].CurrentTS(1) != 0 || h.nodes[0].CurrentTS(0) != 0 {
		t.Fatal("wildcard must not match before the status arrives")
	}
	h.status(1, 0, 0)
	h.drain()
	if h.nodes[1].CurrentTS(1) != 1 || h.nodes[0].CurrentTS(0) != 1 {
		t.Fatalf("both sides advance after status: l0=%d l1=%d",
			h.nodes[0].CurrentTS(0), h.nodes[1].CurrentTS(1))
	}
}

func TestProbeDoesNotSatisfySendPremise(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Probe, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	// The probe advances (the send is active), but the send must NOT: its
	// Rule 2 premise needs the real receive.
	if h.nodes[1].CurrentTS(1) != 1 {
		t.Fatalf("probe must advance, l = %d", h.nodes[1].CurrentTS(1))
	}
	if h.nodes[0].CurrentTS(0) != 0 {
		t.Fatalf("send must still block after a probe, l = %d", h.nodes[0].CurrentTS(0))
	}
	h.enter(trace.Op{Proc: 1, TS: 1, Kind: trace.Recv, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if h.nodes[0].CurrentTS(0) != 1 || h.nodes[1].CurrentTS(1) != 2 {
		t.Fatal("recv must release the send")
	}
}

func TestCollectiveAckGating(t *testing.T) {
	const p = 4
	h := newHarness(t, p, 2)
	for r := 0; r < p-1; r++ {
		h.enter(trace.Op{Proc: r, TS: 0, Kind: trace.Barrier, Comm: trace.CommWorld})
	}
	h.drain()
	for r := 0; r < p-1; r++ {
		if h.node(r).CurrentTS(r) != 0 {
			t.Fatalf("rank %d must wait for the full barrier", r)
		}
	}
	h.enter(trace.Op{Proc: p - 1, TS: 0, Kind: trace.Barrier, Comm: trace.CommWorld})
	h.drain()
	for r := 0; r < p; r++ {
		if h.node(r).CurrentTS(r) != 1 {
			t.Fatalf("rank %d must pass the barrier, l = %d", r, h.node(r).CurrentTS(r))
		}
	}
}

func TestNonBlockingCompletionRules(t *testing.T) {
	h := newHarness(t, 3, 1)
	// Rank 0: Irecv from 1 (req 1), Irecv from 2 (req 2), Waitall.
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Irecv, Peer: 1, Req: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 1, Kind: trace.Irecv, Peer: 2, Req: 2, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 2, Kind: trace.Waitall, Reqs: []trace.ReqID{1, 2}})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Send, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if h.nodes[0].CurrentTS(0) != 2 {
		t.Fatalf("waitall must block with one pending request, l = %d", h.nodes[0].CurrentTS(0))
	}
	h.enter(trace.Op{Proc: 2, TS: 0, Kind: trace.Send, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if h.nodes[0].CurrentTS(0) != 3 {
		t.Fatalf("waitall must advance, l = %d", h.nodes[0].CurrentTS(0))
	}
}

func TestWaitanyAdvancesWithOneMatch(t *testing.T) {
	h := newHarness(t, 3, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Irecv, Peer: 1, Req: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 1, Kind: trace.Irecv, Peer: 2, Req: 2, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 2, Kind: trace.Waitany, Reqs: []trace.ReqID{1, 2}})
	h.drain()
	if h.nodes[0].CurrentTS(0) != 2 {
		t.Fatal("waitany must block with no matches")
	}
	h.enter(trace.Op{Proc: 2, TS: 0, Kind: trace.Send, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	if h.nodes[0].CurrentTS(0) != 3 {
		t.Fatalf("waitany must advance with one match, l = %d", h.nodes[0].CurrentTS(0))
	}
}

func TestSnapshotReportsBlockedAndRunning(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.drain()

	for _, n := range h.nodes {
		n.BeginSnapshot(1)
	}
	h.drain() // ping-pong
	if h.acks != 2 {
		t.Fatalf("acks = %d, want 2", h.acks)
	}
	for _, n := range h.nodes {
		rep, ok := n.BuildReports(1)
		if !ok {
			t.Fatal("BuildReports refused the current epoch")
		}
		h.reports = append(h.reports, rep)
	}
	var e0, e1 *WaitEntry
	for i := range h.reports {
		for j := range h.reports[i].Entries {
			e := &h.reports[i].Entries[j]
			if e.Rank == 0 {
				e0 = e
			} else {
				e1 = e
			}
		}
	}
	if e0 == nil || e0.State != Blocked || e0.Sem != SemAnd || len(e0.Targets) != 1 || e0.Targets[0] != 1 {
		t.Fatalf("rank 0 entry: %+v", e0)
	}
	if e1 == nil || e1.State != Running {
		t.Fatalf("rank 1 entry: %+v", e1)
	}
}

func TestSnapshotFlushesInTransitHandshake(t *testing.T) {
	// A recvActive is in transit when the snapshot starts: the double
	// ping-pong must flush it (and the resulting ack) before the reports,
	// so neither side is spuriously reported blocked.
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Recv, Peer: 0, Comm: trace.CommWorld})
	// Do NOT drain: passSend/recvActive are queued.
	for _, n := range h.nodes {
		n.BeginSnapshot(1)
	}
	h.drain()
	if h.acks != 2 {
		t.Fatalf("acks = %d", h.acks)
	}
	for _, n := range h.nodes {
		rep, ok := n.BuildReports(1)
		if !ok {
			t.Fatal("BuildReports refused the current epoch")
		}
		h.reports = append(h.reports, rep)
	}
	for _, rep := range h.reports {
		for _, e := range rep.Entries {
			if e.State == Blocked {
				t.Fatalf("rank %d spuriously blocked in snapshot: %+v", e.Rank, e)
			}
		}
	}
}

func TestEventsDeferredWhileFrozen(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.nodes[0].BeginSnapshot(1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Send, Peer: 1, Comm: trace.CommWorld})
	if h.nodes[0].WindowSize() != 0 {
		t.Fatal("events must be deferred while frozen")
	}
	h.nodes[0].BuildReports(1) // resumes and replays deferred events
	if h.nodes[0].WindowSize() != 1 {
		t.Fatal("deferred event must be processed after the snapshot")
	}
}

func TestSnapshotEpochsIdempotentAndAbortable(t *testing.T) {
	h := newHarness(t, 2, 1)
	n := h.nodes[0]
	n.BeginSnapshot(1)
	// A duplicate (retransmitted) request for the same epoch is a no-op.
	n.BeginSnapshot(1)
	// A stale request for an older epoch is ignored too.
	n.BeginSnapshot(0)
	// Stale-epoch aborts and report requests do nothing.
	n.Abort(7)
	if _, ok := n.BuildReports(7); ok {
		t.Fatal("BuildReports accepted a wrong epoch")
	}
	if !n.Frozen() {
		t.Fatal("node must still be frozen under epoch 1")
	}
	// The matching abort resumes.
	n.Abort(1)
	if n.Frozen() {
		t.Fatal("abort must thaw the node")
	}
	// A newer epoch restarts the protocol from scratch.
	n.BeginSnapshot(2)
	if _, ok := n.BuildReports(1); ok {
		t.Fatal("old-epoch report request accepted after restart")
	}
	if rep, ok := n.BuildReports(2); !ok || rep.Epoch != 2 {
		t.Fatalf("current-epoch report = %+v ok=%v", rep, ok)
	}
}

func TestWindowBoundedOnCleanTraffic(t *testing.T) {
	h := newHarness(t, 2, 1)
	for i := 0; i < 200; i++ {
		h.enter(trace.Op{Proc: 0, TS: 2 * i, Kind: trace.Send, Peer: 1, Tag: i, Comm: trace.CommWorld})
		h.enter(trace.Op{Proc: 1, TS: 2 * i, Kind: trace.Recv, Peer: 0, Tag: i, Comm: trace.CommWorld})
		h.enter(trace.Op{Proc: 0, TS: 2*i + 1, Kind: trace.Recv, Peer: 1, Tag: i, Comm: trace.CommWorld})
		h.enter(trace.Op{Proc: 1, TS: 2*i + 1, Kind: trace.Send, Peer: 0, Tag: i, Comm: trace.CommWorld})
		h.drain()
	}
	for _, n := range h.nodes {
		if n.WindowSize() != 0 {
			t.Fatalf("window not drained: %d", n.WindowSize())
		}
		if n.WindowHighWater() > 8 {
			t.Fatalf("window high water %d, want small", n.WindowHighWater())
		}
	}
}

// TestNoDuplicateHandshakeMessages pins a regression: when a receive's
// match is installed during its own newOp (the passSend arrived first),
// applyMatches→tryAdvance activates the operation; newOp must not activate
// it a second time, or the recvActive is emitted twice. The pair lives on
// two nodes so every recvActive crosses Out, where it is counted.
func TestNoDuplicateHandshakeMessages(t *testing.T) {
	h := newHarness(t, 2, 1)
	const pairs = 10
	seen := map[[2]int]int{}
	drainCount := func() {
		for len(h.peerQ) > 0 {
			m := h.peerQ[0]
			h.peerQ = h.peerQ[1:]
			if ra, ok := m.msg.(RecvActive); ok {
				seen[[2]int{ra.RecvProc, ra.RecvTS}]++
			}
			h.nodes[m.to].OnPeer(m.from, m.msg)
		}
	}
	for i := 0; i < pairs; i++ {
		h.enter(trace.Op{Proc: 0, TS: i, Kind: trace.Send, Peer: 1, Tag: i, Comm: trace.CommWorld})
	}
	drainCount() // every passSend reaches the receiver before its receive
	for i := 0; i < pairs; i++ {
		h.enter(trace.Op{Proc: 1, TS: i, Kind: trace.Recv, Peer: 0, Tag: i, Comm: trace.CommWorld})
		if i == 4 {
			h.nodes[1].BeginSnapshot(1)
			drainCount()
			h.nodes[1].BuildReports(1)
		}
		if i%3 == 0 {
			drainCount()
		}
	}
	drainCount()
	if len(seen) != pairs {
		t.Fatalf("distinct recvActives = %d, want %d", len(seen), pairs)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("recvActive for %v emitted %d times", k, c)
		}
	}
	if got := h.nodes[1].Stats().RecvActives; got != pairs {
		t.Fatalf("stats recvActives = %d, want %d", got, pairs)
	}
	if h.nodes[0].CurrentTS(0) != pairs || h.nodes[1].CurrentTS(1) != pairs {
		t.Fatalf("l0=%d l1=%d, want both %d", h.nodes[0].CurrentTS(0), h.nodes[1].CurrentTS(1), pairs)
	}
}

// ringSendrecv enters iters iterations of the stress test's ring exchange
// on every rank — MPI_Sendrecv, which the runtime records as Isend + Irecv
// + Waitall — followed by Finalize. Every rank is hosted on one node.
func ringSendrecv(h *harness, procs, iters int) {
	for i := 0; i < iters; i++ {
		for r := 0; r < procs; r++ {
			sreq, rreq := trace.ReqID(2*i+1), trace.ReqID(2*i+2)
			h.enter(trace.Op{Proc: r, TS: 3 * i, Kind: trace.Isend, Peer: (r + 1) % procs, Req: sreq, Comm: trace.CommWorld})
			h.enter(trace.Op{Proc: r, TS: 3*i + 1, Kind: trace.Irecv, Peer: (r + procs - 1) % procs, Req: rreq, Comm: trace.CommWorld})
			h.enter(trace.Op{Proc: r, TS: 3*i + 2, Kind: trace.Waitall, Reqs: []trace.ReqID{sreq, rreq}})
		}
	}
	for r := 0; r < procs; r++ {
		h.enter(trace.Op{Proc: r, TS: 3 * iters, Kind: trace.Finalize})
	}
}

// TestSelfAddressedHandshakesStayInNode: a node hosting every rank of a
// ring consumes all of its handshakes in-line, within the entry point that
// produced them. Nothing reaches Out.Peer, every rank reaches Finalize
// without a single delivery from outside, and a snapshot needs no Ping
// because the node's link to itself is empty.
func TestSelfAddressedHandshakesStayInNode(t *testing.T) {
	const procs, iters = 4, 25
	h := newHarness(t, procs, procs)
	n := h.nodes[0]
	ringSendrecv(h, procs, iters)
	if len(h.peerQ) != 0 {
		t.Fatalf("%d messages left through Out.Peer, want 0 (first: %T)", len(h.peerQ), h.peerQ[0].msg)
	}
	for r := 0; r < procs; r++ {
		if got := n.CurrentTS(r); got != 3*iters || !n.Finished(r) {
			t.Fatalf("rank %d at l=%d (finished %v), want Finalize at %d", r, got, n.Finished(r), 3*iters)
		}
	}
	if st := n.Stats(); st.PassSends != procs*iters || st.RecvActiveAcks != procs*iters {
		t.Fatalf("stats %+v: self-delivered messages must still be counted", st)
	}
	if n.WindowSize() != procs {
		t.Fatalf("window holds %d operations, want only the %d Finalizes", n.WindowSize(), procs)
	}
	n.BeginSnapshot(1)
	if len(h.peerQ) != 0 {
		t.Fatalf("snapshot sent %T, want no ping to the node itself", h.peerQ[0].msg)
	}
	if h.acks != 1 {
		t.Fatalf("acks = %d, want the consistent state acknowledged at once", h.acks)
	}
	rep, ok := n.BuildReports(1)
	if !ok {
		t.Fatal("BuildReports refused the current epoch")
	}
	for _, e := range rep.Entries {
		if e.State != Finished {
			t.Fatalf("rank %d reported %v, want Finished", e.Rank, e.State)
		}
	}
}

// footprint counts the map entries and slice elements reachable from v: a
// size measure of a memento that needs no knowledge of its layout.
func footprint(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return footprint(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += footprint(it.Key()) + footprint(it.Value())
		}
		return n
	}
	return 0
}

// TestRequestRecordsFreedByWait: a blocking Waitall frees the requests it
// returned, so a long ring of Sendrecvs leaves no request record behind and
// the checkpoint stays the same size however long the run was.
func TestRequestRecordsFreedByWait(t *testing.T) {
	const procs = 4
	measure := func(iters int) (records, size int) {
		h := newHarness(t, procs, procs)
		ringSendrecv(h, procs, iters)
		h.drain()
		n := h.nodes[0]
		for _, rs := range n.ranks {
			records += len(rs.reqs)
		}
		m := n.Checkpoint()
		if m == nil {
			t.Fatal("checkpoint refused on a quiescent node")
		}
		return records, footprint(reflect.ValueOf(m))
	}
	r10, s10 := measure(10)
	r80, s80 := measure(80)
	if r10 != 0 || r80 != 0 {
		t.Fatalf("request records after 10/80 iterations: %d/%d, want 0", r10, r80)
	}
	if s80 != s10 {
		t.Fatalf("checkpoint footprint grows with the run: %d after 10 iterations, %d after 80", s10, s80)
	}
}

// TestWaitanyKeepsCompletedRecords: Waitany returns one request; the other
// one, completed but not returned, must still read as done to a later
// Waitany, so its record survives.
func TestWaitanyKeepsCompletedRecords(t *testing.T) {
	h := newHarness(t, 3, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Irecv, Peer: 1, Req: 1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 0, TS: 1, Kind: trace.Irecv, Peer: 2, Req: 2, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Send, Peer: 0, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 2, TS: 0, Kind: trace.Send, Peer: 0, Comm: trace.CommWorld})
	h.drain()
	h.enter(trace.Op{Proc: 0, TS: 2, Kind: trace.Waitany, Reqs: []trace.ReqID{1, 2}})
	h.enter(trace.Op{Proc: 0, TS: 3, Kind: trace.Waitany, Reqs: []trace.ReqID{1, 2}})
	h.drain()
	if got := h.nodes[0].CurrentTS(0); got != 4 {
		t.Fatalf("both Waitanys must pass, l = %d", got)
	}
	if got := len(h.nodes[0].ranks[0].reqs); got != 2 {
		t.Fatalf("request records = %d, want both kept", got)
	}
}

// TestWindowReusesReclaimedSlots: a rank whose tracker lags by a steady
// number of operations — each new one stored while the oldest retires —
// keeps a bounded slice, and every stored operation stays reachable by its
// timestamp.
func TestWindowReusesReclaimedSlots(t *testing.T) {
	const lag, total = 100, 5000
	var w window
	for ts := 0; ts < total; ts++ {
		w.put(&opState{op: trace.Op{TS: ts}})
		if ts >= lag {
			if o := w.take(ts - lag); o == nil || o.op.TS != ts-lag {
				t.Fatalf("take(%d) = %v", ts-lag, o)
			}
		}
		if c := cap(w.slots); c > 4*lag {
			t.Fatalf("at ts %d the window's slice holds %d slots for %d stored operations", ts, c, lag)
		}
	}
	for ts := 0; ts < total; ts++ {
		if got := w.get(ts); (got != nil) != (ts >= total-lag) || (got != nil && got.op.TS != ts) {
			t.Fatalf("get(%d) = %v", ts, got)
		}
	}
}

// TestCollectiveMismatchSurfaces drives a kind mismatch through the harness.
func TestCollectiveMismatchSurfaces(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.enter(trace.Op{Proc: 0, TS: 0, Kind: trace.Barrier, Peer: -1, Comm: trace.CommWorld})
	h.enter(trace.Op{Proc: 1, TS: 0, Kind: trace.Allreduce, Peer: -1, Comm: trace.CommWorld})
	h.drain()
	if len(h.mismatches) == 0 {
		t.Fatal("collective kind mismatch not reported")
	}
}

// truncateTrace builds the per-rank prefix trace (cutting rank i at cuts[i]
// operations): matches and collectives whose endpoints were cut off are
// dropped — the shape of a run where some ranks stopped issuing operations,
// i.e. a (potential) deadlock.
func truncateTrace(mt *trace.MatchedTrace, cuts []int) (out *trace.MatchedTrace, lostStatus bool) {
	out = trace.NewMatchedTrace(mt.NumProcs())
	for i := 0; i < mt.NumProcs(); i++ {
		for j := 0; j < cuts[i]; j++ {
			out.Append(i, *mt.Op(trace.Ref{Proc: i, TS: j}))
		}
	}
	within := func(r trace.Ref) bool { return r.TS < cuts[r.Proc] }
	// statusVisible: would the runtime have revealed this (wildcard)
	// receive's matching decision before the cut? Blocking receives reveal
	// it on return; non-blocking ones only at their completing operation.
	// A match whose status the tool can never observe must not appear in
	// the reference either — both analyses then share the same knowledge.
	statusVisible := func(r trace.Ref) bool {
		op := mt.Op(r)
		if !op.Kind.IsRecv() || op.Peer != trace.AnySource {
			return true
		}
		if op.Kind == trace.Recv {
			return true // revealed immediately (r is within the prefix)
		}
		for ts := r.TS + 1; ts < cuts[r.Proc]; ts++ {
			later := mt.Op(trace.Ref{Proc: r.Proc, TS: ts})
			if !later.Kind.IsCompletion() {
				continue
			}
			for _, rq := range later.Reqs {
				if rq == op.Req {
					return true
				}
			}
		}
		return false
	}
	// wildDangling marks a dropped match that leaves an in-prefix wildcard
	// receive unmatched: its unresolved state can hold later matches (the
	// paper's Sec. 4.2 probing limitation), so only lag-tolerant checks
	// apply.
	wildDangling := func(a, b trace.Ref) bool {
		for _, r := range []trace.Ref{a, b} {
			if !within(r) {
				continue
			}
			op := mt.Op(r)
			if op.Kind.IsRecv() && op.Peer == trace.AnySource {
				return true
			}
		}
		return false
	}
	for a, b := range mt.P2P {
		if !within(a) || !within(b) {
			if wildDangling(a, b) {
				lostStatus = true
			}
			continue
		}
		if !statusVisible(a) || !statusVisible(b) {
			lostStatus = true
			continue
		}
		if back, ok := mt.P2P[b]; ok && back == a {
			if a.Proc < b.Proc || (a.Proc == b.Proc && a.TS < b.TS) {
				out.MatchP2P(a, b)
			}
		} else {
			out.MatchProbe(a, b) // probe entry
		}
	}
	for _, c := range mt.Colls {
		all := true
		for _, r := range c.Ops {
			if !within(r) {
				all = false
				break
			}
		}
		if all {
			out.AddColl(c.Comm, c.Ops)
		}
	}
	return out, lostStatus
}

// TestEquivalenceOnTruncatedTraces cuts random ranks' traces short —
// producing stuck/deadlocked executions — and checks the distributed nodes
// converge to exactly the reference terminal state (same blocked set, same
// timestamps). Statuses are only replayed for receives whose match survived
// the cut (a receive whose sender vanished never completed, so no status
// exists).
func TestEquivalenceOnTruncatedTraces(t *testing.T) {
	testseed.Run(t, 100, 250, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(6)
		cfg := tracegen.Default(procs)
		cfg.Events = 30 + rng.Intn(40)
		cfg.PProbe = 0
		full := tracegen.Generate(cfg, rng)

		cuts := make([]int, procs)
		for i := range cuts {
			cuts[i] = full.Len(i)
			if rng.Float64() < 0.5 {
				cuts[i] = rng.Intn(full.Len(i) + 1)
			}
		}

		// Iterate to a causally closed (realizable) truncation: a rank that
		// blocks in operation k never issues operations beyond k, so later
		// ops must be cut too; re-run the reference until stable.
		var mt *trace.MatchedTrace
		var lostStatus bool
		var ref waitstate.State
		for {
			mt, lostStatus = truncateTrace(full, cuts)
			sys := waitstate.New(mt)
			ref, _ = sys.Run(sys.Initial())
			changed := false
			for i := range cuts {
				limit := ref[i]
				if limit < mt.Len(i) {
					limit++ // the blocked operation itself was issued
				}
				if limit < cuts[i] {
					cuts[i] = limit
					changed = true
				}
			}
			if !changed {
				break
			}
		}

		fanIn := 1 + rng.Intn(3)
		h := newHarness(t, procs, fanIn)

		queues := make([][]event.Event, procs)
		for i := 0; i < procs; i++ {
			for j := 0; j < mt.Len(i); j++ {
				op := *mt.Op(trace.Ref{Proc: i, TS: j})
				op.PeerWorld = op.Peer
				if op.Peer == trace.AnySource {
					op.PeerWorld = trace.AnySource
				}
				op.SelfGroup = i
				queues[i] = append(queues[i], event.Event{Type: event.Enter, Op: op})
				completed := func(r trace.Ref) bool {
					_, ok := mt.P2P[r]
					return ok
				}
				if op.Kind == trace.Recv && op.Peer == trace.AnySource && completed(op.Ref()) {
					queues[i] = append(queues[i], event.Event{
						Type: event.Status, Proc: i, TS: j, Src: op.ActualSrc})
				}
				if op.Kind.IsCompletion() {
					for _, cr := range mt.CommOps(&op) {
						co := mt.Op(cr)
						if co.Kind == trace.Irecv && co.Peer == trace.AnySource && completed(cr) {
							queues[i] = append(queues[i], event.Event{
								Type: event.Status, Proc: i, TS: cr.TS, Src: co.ActualSrc})
						}
					}
				}
			}
		}
		for {
			var live []int
			for i, q := range queues {
				if len(q) > 0 {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			i := live[rng.Intn(len(live))]
			h.node(i).OnEvent(queues[i][0])
			queues[i] = queues[i][1:]
			if rng.Float64() < 0.3 {
				h.drain()
			}
		}
		h.drain()

		// Soundness: the distributed tracker never advances past the formal
		// reference. When truncation lost no wildcard statuses, the two
		// agree exactly. When statuses were lost, the tool may lag: an
		// unresolved wildcard receive holds later matches — the limitation
		// the paper names in Sec. 4.2 ("we used a probing [14] technique
		// ... we currently do not extend this approach to our distributed
		// implementation").
		for i := 0; i < procs; i++ {
			got := h.node(i).CurrentTS(i)
			if got > ref[i] {
				t.Fatalf("seed %d: rank %d overtook the reference: l=%d > %d (cuts=%v)",
					seed, i, got, ref[i], cuts)
			}
			if !lostStatus && got != ref[i] {
				t.Fatalf("seed %d: rank %d reached l=%d, reference %d (cuts=%v)",
					seed, i, got, ref[i], cuts)
			}
		}
	})
}

// TestEquivalenceWithReferenceOnRandomTraces drives randomly generated
// deadlock-free traces through distributed nodes (random event interleaving,
// FIFO intralayer delivery) and checks every rank reaches the reference
// terminal state of the formal transition system.
func TestEquivalenceWithReferenceOnRandomTraces(t *testing.T) {
	testseed.Run(t, 0, 20, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(6)
		cfg := tracegen.Default(procs)
		cfg.Events = 30 + rng.Intn(50)
		cfg.PProbe = 0 // probes need runtime-style status timing; covered elsewhere
		mt := tracegen.Generate(cfg, rng)

		// Reference terminal state.
		sys := waitstate.New(mt)
		ref, _ := sys.Run(sys.Initial())

		fanIn := 1 + rng.Intn(3)
		h := newHarness(t, procs, fanIn)

		// Build per-rank event queues: Enter events in TS order plus Status
		// events after the resolving position.
		queues := make([][]event.Event, procs)
		for i := 0; i < procs; i++ {
			for j := 0; j < mt.Len(i); j++ {
				op := *mt.Op(trace.Ref{Proc: i, TS: j})
				op.PeerWorld = op.Peer
				if op.Peer == trace.AnySource {
					op.PeerWorld = trace.AnySource
				}
				op.SelfGroup = i
				queues[i] = append(queues[i], event.Event{Type: event.Enter, Op: op})
				if op.Kind == trace.Recv && op.Peer == trace.AnySource {
					queues[i] = append(queues[i], event.Event{
						Type: event.Status, Proc: i, TS: j, Src: op.ActualSrc})
				}
				if op.Kind.IsCompletion() {
					for _, cr := range mt.CommOps(&op) {
						co := mt.Op(cr)
						if co.Kind == trace.Irecv && co.Peer == trace.AnySource {
							queues[i] = append(queues[i], event.Event{
								Type: event.Status, Proc: i, TS: cr.TS, Src: co.ActualSrc})
						}
					}
				}
			}
		}

		// Random interleaving across ranks; drain messages occasionally.
		for {
			var live []int
			for i, q := range queues {
				if len(q) > 0 {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			i := live[rng.Intn(len(live))]
			h.node(i).OnEvent(queues[i][0])
			queues[i] = queues[i][1:]
			if rng.Float64() < 0.3 {
				h.drain()
			}
		}
		h.drain()

		for i := 0; i < procs; i++ {
			if got := h.node(i).CurrentTS(i); got != ref[i] {
				t.Fatalf("seed %d: rank %d reached l=%d, reference %d", seed, i, got, ref[i])
			}
			if !h.node(i).Finished(i) {
				t.Fatalf("seed %d: rank %d not finished", seed, i)
			}
		}
	})
}
