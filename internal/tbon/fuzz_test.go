package tbon

import (
	"testing"

	"dwst/internal/fault"
)

// FuzzResequence fuzzes the receiver side of the reliable link layer: the
// one resequencer (reseq.accept) that node links and the worker's rank
// links share. The input bytes encode an arbitrary arrival schedule of
// frames on two links — duplicates, stale retransmissions, reorderings,
// interleavings — and the invariant is the exactly-once FIFO contract the
// protocol layers rely on: per link, the dispatched messages are exactly
// the contiguous sequence prefix present in the schedule, in order, each
// once. Link 0 arrives through Node.deliver, as a node's tool links do;
// link 1 drives a bare reseq, as the worker's rank links do, and checks
// every cumulative acknowledgement it returns.
//
// Byte encoding: bit 6 selects the link, bits 0-5 the frame sequence
// number (0..63). A byte with bit 7 set delivers an unframed message,
// which must always dispatch directly.
func FuzzResequence(f *testing.F) {
	// Seeds mirror schedules recorded from chaos runs: in-order delivery,
	// duplicated frames, a reordered pair, a stale retransmission after
	// acknowledgement, a gap never filled, and two interleaved links.
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{1, 0, 3, 2})
	f.Add([]byte{0, 1, 2, 0, 1})
	f.Add([]byte{0, 2, 3, 5})
	f.Add([]byte{0, 64, 1, 65, 66, 2})
	f.Add([]byte{0x80, 0, 0x81, 1})
	f.Add([]byte{3, 2, 1, 0, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &transport{links: make(map[linkKey]*linkOut)}
		n := &Node{
			tree: &Tree{transport: tr},
			rsq:  make(map[linkKey]*reseq),
		}
		keys := [2]linkKey{
			{from: 1, to: 9, class: fault.UpLink},
			{from: 2, to: 9, class: fault.PeerLink},
		}
		rank := &reseq{buf: make(map[uint64]envelope)}
		var delivered [2][]uint64
		unframed := 0
		dispatch := func(env envelope) {
			switch m := env.msg.(type) {
			case uint64: // framed payload carries its own seq for checking
				for i, k := range keys {
					if env.from == k.from {
						delivered[i] = append(delivered[i], m)
					}
				}
			case string:
				_ = m
				unframed++
			default:
				t.Fatalf("dispatch saw unexpected payload %T", env.msg)
			}
		}

		wantUnframed := 0
		var sent [2]map[uint64]bool
		sent[0], sent[1] = make(map[uint64]bool), make(map[uint64]bool)
		for _, b := range data {
			if b&0x80 != 0 {
				wantUnframed++
				n.deliver(envelope{from: 7, msg: "plain"}, dispatch)
				continue
			}
			li := int(b>>6) & 1
			seq := uint64(b & 0x3f)
			sent[li][seq] = true
			if li == 1 {
				upTo, ok := rank.accept(seq, envelope{from: keys[1].from, msg: seq}, dispatch)
				if ok && upTo+1 != uint64(len(delivered[1])) {
					t.Fatalf("rank link acknowledged up to %d after delivering %d frames", upTo, len(delivered[1]))
				}
				continue
			}
			env := envelope{from: keys[0].from, msg: frame{key: keys[0], seq: seq, msg: seq}}
			n.deliver(env, dispatch)
		}

		if unframed != wantUnframed {
			t.Fatalf("unframed messages: dispatched %d, want %d", unframed, wantUnframed)
		}
		for li := range keys {
			// Expected: the contiguous prefix 0..k-1 fully covered by the
			// schedule, delivered in order, exactly once.
			var want []uint64
			for s := uint64(0); sent[li][s]; s++ {
				want = append(want, s)
			}
			got := delivered[li]
			if len(got) != len(want) {
				t.Fatalf("link %d: delivered %v, want prefix %v (schedule %v)", li, got, want, data)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("link %d: out-of-order or duplicated delivery %v, want %v", li, got, want)
				}
			}
		}
	})
}
