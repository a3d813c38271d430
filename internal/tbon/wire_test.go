package tbon

import (
	"reflect"
	"testing"

	"dwst/internal/event"
	"dwst/internal/fault"
)

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

// TestReplayAndLiveShareInbox: a replayed journal entry (replayOne) and a
// live wire frame (deliverData) of the same link class reach the same queue
// — for rank events, the same mailbox — in order. Replay differs from live
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
				for len(n.events) > 0 {
					got = append(got, (<-n.events).ev.TS)
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
