package dws

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwst/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the pinned descriptions under testdata/")

// descCase is one frozen rank state entryFor classifies: the rank's current
// operation and what the node knows about it.
type descCase struct {
	name string
	rs   func() *rankState
}

// current returns a rank whose current operation is op, set up by init.
func current(op trace.Op, init func(rs *rankState, o *opState)) func() *rankState {
	return func() *rankState {
		rs := &rankState{rank: op.Proc, l: op.TS, lastTS: op.TS}
		o := &opState{op: op, active: true, peerProc: -1, resolvedGr: -1}
		if init != nil {
			init(rs, o)
		}
		rs.ops.put(o)
		return rs
	}
}

// withRequests stores a non-blocking operation for every request of a
// completion, the first one already complete when firstDone is set.
func withRequests(firstDone bool, reqs ...trace.Op) func(rs *rankState, o *opState) {
	return func(rs *rankState, o *opState) {
		for i, r := range reqs {
			ro := &opState{op: r, active: true, commComplete: firstDone && i == 0, matched: r.Kind == trace.Irecv && r.Peer != trace.AnySource}
			ro.peerProc = r.Peer
			rs.ops.put(ro)
			rs.reqs.put(r.Req, r.TS)
		}
	}
}

func descCases() []descCase {
	var cases []descCase
	for _, file := range []string{"", "pairs.c"} {
		op := func(o trace.Op) trace.Op {
			o.Proc, o.File, o.Line = 6, file, 1234
			if o.TS == 0 {
				o.TS = 9
			}
			return o
		}
		sfx := ""
		if file != "" {
			sfx = "+site"
		}
		add := func(name string, rs func() *rankState) {
			cases = append(cases, descCase{name + sfx, rs})
		}
		add("send", current(op(trace.Op{Kind: trace.Send, Peer: 7, PeerWorld: 7, Tag: 3}), nil))
		add("ssend", current(op(trace.Op{Kind: trace.Ssend, Peer: 1, PeerWorld: 4097, Tag: 0, Comm: 2}), nil))
		add("recv-matched", current(op(trace.Op{Kind: trace.Recv, Peer: 5, PeerWorld: 5, Tag: 3}),
			func(_ *rankState, o *opState) { o.matched, o.peerProc, o.peerTS = true, 5, 11 }))
		add("wildcard-matched", current(op(trace.Op{Kind: trace.Recv, Peer: trace.AnySource, PeerWorld: trace.AnySource, Tag: trace.AnyTag}),
			func(_ *rankState, o *opState) { o.matched, o.peerProc, o.peerTS = true, 12, 2 }))
		add("wildcard-unresolved", current(op(trace.Op{Kind: trace.Recv, Peer: trace.AnySource, PeerWorld: trace.AnySource, Tag: trace.AnyTag}), nil))
		add("probe-wildcard-unresolved", current(op(trace.Op{Kind: trace.Probe, Peer: trace.AnySource, PeerWorld: trace.AnySource, Tag: 8}), nil))
		add("wildcard-resolved-by-status", current(op(trace.Op{Kind: trace.Recv, Peer: trace.AnySource, PeerWorld: trace.AnySource, Tag: trace.AnyTag, Comm: 1}),
			func(_ *rankState, o *opState) { o.resolved, o.resolvedGr = true, 3 }))
		add("recv-unmatched", current(op(trace.Op{Kind: trace.Recv, Peer: 0, PeerWorld: 0, Tag: 3}), nil))
		add("barrier", current(op(trace.Op{Kind: trace.Barrier}), func(_ *rankState, o *opState) { o.wave = 0 }))
		add("allreduce", current(op(trace.Op{Kind: trace.Allreduce, Comm: 3}), func(_ *rankState, o *opState) { o.wave = 27 }))
		add("comm-split", current(op(trace.Op{Kind: trace.CommSplit, Comm: 1}), func(_ *rankState, o *opState) { o.wave = 4 }))
		add("waitall", current(op(trace.Op{Kind: trace.Waitall, TS: 9, Reqs: []trace.ReqID{1, 2}}),
			withRequests(false,
				trace.Op{Proc: 6, TS: 7, Kind: trace.Isend, Peer: 2, PeerWorld: 2, Req: 1},
				trace.Op{Proc: 6, TS: 8, Kind: trace.Irecv, Peer: trace.AnySource, PeerWorld: trace.AnySource, Req: 2})))
		add("wait", current(op(trace.Op{Kind: trace.Wait, TS: 9, Reqs: []trace.ReqID{1}}),
			withRequests(false, trace.Op{Proc: 6, TS: 8, Kind: trace.Irecv, Peer: 3, PeerWorld: 3, Req: 1})))
		add("waitany", current(op(trace.Op{Kind: trace.Waitany, TS: 9, Reqs: []trace.ReqID{1, 2}}),
			withRequests(false,
				trace.Op{Proc: 6, TS: 7, Kind: trace.Irecv, Peer: 1, PeerWorld: 1, Req: 1},
				trace.Op{Proc: 6, TS: 8, Kind: trace.Irecv, Peer: 2, PeerWorld: 2, Req: 2})))
		add("waitsome", current(op(trace.Op{Kind: trace.Waitsome, TS: 9, Reqs: []trace.ReqID{1, 2}}),
			withRequests(false,
				trace.Op{Proc: 6, TS: 7, Kind: trace.Isend, Peer: 1, PeerWorld: 1, Req: 1},
				trace.Op{Proc: 6, TS: 8, Kind: trace.Irecv, Peer: trace.AnySource, PeerWorld: trace.AnySource, Req: 2})))
		add("sendrecv", current(op(trace.Op{Kind: trace.Sendrecv, Peer: 1, PeerWorld: 1, Tag: 2, SendrecvPeer: 3, SendrecvTag: 4}), nil))
	}
	cases = append(cases,
		descCase{"crashed", func() *rankState { return &rankState{rank: 6, crashed: true, lastCall: 31} }},
		descCase{"crashed-early", func() *rankState { return &rankState{rank: 4095, crashed: true} }},
	)
	return cases
}

// TestWaitDescriptionsUnchanged pins the description entryFor gives every
// kind of blocked (or crashed) rank against the strings the fmt-based
// renderer produced, kept in testdata/descriptions.golden.
func TestWaitDescriptionsUnchanged(t *testing.T) {
	n := NewNode(0, []int{6}, func(int) int { return 0 }, Discard)
	var sb strings.Builder
	for _, c := range descCases() {
		var buf reportBuf
		e := n.entryFor(c.rs(), &buf)
		e.Desc = string(buf.desc)
		if e.State != Blocked && e.State != Crashed {
			t.Fatalf("%s: state %v, want blocked or crashed", c.name, e.State)
		}
		fmt.Fprintf(&sb, "%s\t%s\n", c.name, e.Desc)
	}
	path := filepath.Join("testdata", "descriptions.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(golden) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, lineAt(gl, i), wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}

	// BuildReports slices every description of a report out of one string:
	// each entry must still read what entryFor described for it alone.
	cases := descCases()
	hosted := make([]int, len(cases))
	for i := range hosted {
		hosted[i] = i
	}
	rn := NewNode(0, hosted, func(int) int { return 0 }, Discard)
	want := make([]string, len(cases))
	for i, c := range cases {
		rs := c.rs()
		rs.rank = i
		var buf reportBuf
		rn.entryFor(rs, &buf)
		want[i] = string(buf.desc)
		rn.ranks[i] = *rs
	}
	rn.BeginSnapshot(1)
	rep, ok := rn.BuildReports(1)
	if !ok || len(rep.Entries) != len(cases) {
		t.Fatalf("BuildReports: ok=%v, %d entries", ok, len(rep.Entries))
	}
	for i, e := range rep.Entries {
		if e.Rank != i || e.Desc != want[i] {
			t.Errorf("entry %d (%s): rank %d, desc %q, want %q", i, cases[i].name, e.Rank, e.Desc, want[i])
		}
	}
}

func lineAt(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "<missing>"
}
