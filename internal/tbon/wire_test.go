package tbon

import (
	"reflect"
	"testing"

	"dwst/internal/dws"
	"dwst/internal/event"
	"dwst/internal/fault"
	"dwst/internal/trace"
)

// TestCodecBatchRoundTrip: a typed peer batch holding every intralayer
// message type, each with every field it uses set, crosses the TCP
// payload codec inside a data frame unchanged, and so does a bare
// singleton.
func TestCodecBatchRoundTrip(t *testing.T) {
	b := dws.Batch{FromNode: 3, Msgs: []dws.PeerMsg{
		{Type: dws.PeerPassSend, SendProc: 12, SendTS: 7, SrcGroup: 2, Dest: 5, Tag: 9,
			Comm: trace.CommID(4), Kind: trace.Isend, FromNode: 3},
		{Type: dws.PeerRecvActive, SendProc: 5, SendTS: 1, RecvProc: 13, RecvTS: 8, FromNode: 3, Probe: true},
		{Type: dws.PeerRecvActiveAck, RecvProc: 6, RecvTS: 11},
		{Type: dws.PeerPing, Round: 2, Epoch: 4, FromNode: 3},
		{Type: dws.PeerPong, Round: 1, Epoch: 4, FromNode: 3},
	}}
	for _, msg := range []any{b, dws.PassSend{SendProc: 12, SendTS: 7, Dest: 5, Kind: trace.Send, FromNode: 3}} {
		in := wireData{From: 3, To: 9, FromG: 7, Class: fault.PeerLink, Seq: 42, Msg: msg}
		blob, err := encodePayload(in)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		out, err := decodePayload(blob)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip of %T:\n got %+v\nwant %+v", msg, out, in)
		}
	}
}

// TestNewNetRefusesBadGeometry: the TCP fabric needs a coordinator-local
// root (two or more first-layer nodes) and between one worker and one per
// first-layer node; NewNet refuses anything else before it listens.
func TestNewNetRefusesBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name                   string
		leaves, fanIn, workers int
	}{
		{"one first-layer node", 4, 4, 1},
		{"zero workers", 8, 2, 0},
		{"more workers than leaves", 8, 2, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewNet(Config{Leaves: c.leaves, FanIn: c.fanIn, Net: &NetConfig{Role: NetCoordinator, Workers: c.workers}})
			if err == nil {
				tr.Stop()
				t.Fatalf("NewNet accepted %d leaves at fan-in %d with %d workers", c.leaves, c.fanIn, c.workers)
			}
		})
	}
	tr, err := NewNet(Config{Leaves: 8, FanIn: 2, Net: &NetConfig{Role: NetCoordinator, Workers: 4}})
	if err != nil {
		t.Fatalf("one worker per first-layer node refused: %v", err)
	}
	tr.Stop()
}

// TestCoordinatorFrameWindow: over TCP, EventBuf is the coordinator's
// per-leaf window of rank-event frames in flight (fab.win) — DefaultEventBuf
// frames when EventBuf is 0, the configured value otherwise.
func TestCoordinatorFrameWindow(t *testing.T) {
	for _, c := range []struct{ eventBuf, want int }{{0, DefaultEventBuf}, {40, 40}} {
		tr, err := NewNet(Config{Leaves: 8, FanIn: 2, EventBuf: c.eventBuf, Net: &NetConfig{Role: NetCoordinator, Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		win := tr.net.win
		tr.Stop()
		if len(win) != 4 {
			t.Fatalf("EventBuf %d: %d frame windows, want one per first-layer node (4)", c.eventBuf, len(win))
		}
		for i, w := range win {
			if cap(w) != c.want {
				t.Fatalf("EventBuf %d: leaf %d holds %d frames in flight, want %d", c.eventBuf, i, cap(w), c.want)
			}
		}
	}
}

// TestReplayAndLiveShareInbox: a replayed journal entry (replayOne) and a
// live wire frame (deliverData) of the same link class reach the same queue
// — for rank events, the same rank inbox — in order. Replay differs from live
// delivery only in skipping the resequencer: the replayed envelope is
// unframed, the live tool frame still framed for the node's own.
func TestReplayAndLiveShareInbox(t *testing.T) {
	for _, class := range []fault.Class{fault.UpLink, fault.DownLink, fault.PeerLink, fault.RankLink} {
		t.Run(class.String(), func(t *testing.T) {
			tr := New(Config{Leaves: 4, FanIn: 2})
			defer tr.Stop()
			n := tr.FirstLayer()[1]
			tp := tr.shape.Load().clone()
			tp.gidIndex = map[int]*Node{n.gid: n}
			tr.shape.Store(tp)
			fab := &netFabric{t: tr, rankRsq: make(map[linkKey]*reseq)}
			msg := func(i int) any {
				if class == fault.RankLink {
					return wireRank{Rank: 2, Ev: event.Event{TS: i}}
				}
				return i
			}
			// The journaled entry names a retired gid; replay addresses it
			// by first-layer index.
			fab.replayOne(1, wireData{From: 3, To: 99, FromG: 7, Class: class, Msg: msg(0)})
			live, err := encodePayload(wireData{From: 3, To: n.gid, FromG: 7, Class: class, Seq: 0, Msg: msg(1)})
			if err != nil {
				t.Fatal(err)
			}
			fab.deliverData(live)
			if got := fab.codecErrors.Load(); got != 0 {
				t.Fatalf("%d codec errors", got)
			}

			var got []int
			if class == fault.RankLink {
				for _, e := range n.rank.take(maxEventDrain) {
					got = append(got, e.ev.TS)
				}
			} else {
				slab := n.inbox(class).takeSlab(nil, maxSlab)
				for i, e := range slab {
					if _, framed := e.msg.(frame); framed != (i == 1) {
						t.Fatalf("envelope %d framed=%v: only the live frame may carry a sequence number", i, framed)
					}
					got = append(got, innerMsg(e.msg).(int))
				}
			}
			if !reflect.DeepEqual(got, []int{0, 1}) {
				t.Fatalf("replayed then live %v reached the node as %v, want [0 1]", class, got)
			}
		})
	}
}
