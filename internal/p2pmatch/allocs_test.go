//go:build !race

// The race detector changes allocation counts, so this bound holds only
// without it.

package p2pmatch

import "testing"

// TestMatchAllocs: once an engine's per-rank lists and its match buffer
// have grown, a send/receive pair that matches allocates nothing — sends
// and receives are stored by value and the matches come back in the
// engine's own buffer.
func TestMatchAllocs(t *testing.T) {
	e := NewEngine()
	ts := 0
	round := func() {
		if ms := e.AddSend(send(0, ts, 1, 7)); len(ms) != 0 {
			t.Fatalf("send %d matched before its receive: %v", ts, ms)
		}
		if ms := e.AddRecv(recv(1, ts, 0, 7)); len(ms) != 1 || ms[0].Send.TS != ts {
			t.Fatalf("receive %d: matches %v", ts, ms)
		}
		ts++
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocations per matched send/receive pair, want 0", allocs)
	}
}
