package dws

import (
	"math"
	"math/rand"
	"testing"

	"dwst/internal/testseed"
	"dwst/internal/trace"
)

// TestRequestWindowMatchesMap drives a request window and a plain map with
// the same records, the way a rank's calls reach the tool, and checks step
// by step that both hold the same records and that the window's slice is
// bounded by the most records ever held at once, never by the span of IDs
// seen. Each seed mixes four ID shapes:
//   - dense: Isend/Irecv take consecutive IDs and a Waitall frees them;
//   - gapped: a blocking Recv or Probe used an internal request, so an ID
//     never reaches the tool;
//   - kept: Waitany/Waitsome/Test* completed a request without freeing its
//     record, which stays live for a long while or for good;
//   - replayed: a recorded trace names arbitrary IDs (negative, far apart,
//     reused while still live, the int32 extremes).
func TestRequestWindowMatchesMap(t *testing.T) {
	testseed.Run(t, 0, 2000, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var w reqWindow
		ref := map[trace.ReqID]int{}
		peak := 0
		next := trace.ReqID(rng.Intn(3)) // the runtime's per-rank counter
		var open []trace.ReqID           // created, not yet completed
		var kept []trace.ReqID           // completed but not freed
		pGap, pKeep, pReplay := rng.Float64()*0.5, rng.Float64()*0.3, rng.Float64()*0.2
		replayIDs := []trace.ReqID{0, -1, 1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, 1 << 20, -(1 << 20)}
		ts := 0
		var touched []trace.ReqID // IDs put or freed since the last check

		put := func(rq trace.ReqID) {
			w.put(rq, ts)
			ref[rq] = ts
			ts++
			peak = max(peak, len(ref))
			touched = append(touched, rq)
		}
		del := func(rq trace.ReqID) {
			w.del(rq)
			delete(ref, rq)
			touched = append(touched, rq)
		}
		// check compares the touched and probed IDs at every step and the
		// whole reference every tenth.
		check := func(step int, probe ...trace.ReqID) {
			t.Helper()
			if got := w.records(); got != len(ref) {
				t.Fatalf("step %d: window holds %d records, reference %d", step, got, len(ref))
			}
			if step%10 == 0 {
				for rq, want := range ref {
					if got, ok := w.get(rq); !ok || got != want {
						t.Fatalf("step %d: get(%d) = %d,%v, want %d", step, rq, got, ok, want)
					}
				}
			}
			probe = append(probe, touched...)
			touched = touched[:0]
			for _, rq := range probe {
				want, wok := ref[rq]
				if got, ok := w.get(rq); ok != wok || got != want {
					t.Fatalf("step %d: get(%d) = %d,%v, want %d,%v", step, rq, got, ok, want, wok)
				}
			}
			if c, bound := cap(w.slots), 4*reqSpan(peak); c > bound {
				t.Fatalf("step %d: window slice holds %d slots; at most %d records were ever live", step, c, peak)
			}
		}

		steps := 200 + rng.Intn(800)
		for step := 0; step < steps; step++ {
			switch r := rng.Float64(); {
			case r < pReplay:
				var rq trace.ReqID
				switch rng.Intn(3) {
				case 0:
					rq = replayIDs[rng.Intn(len(replayIDs))]
				case 1:
					rq = trace.ReqID(rng.Int31n(1<<16) - 1<<15)
				default:
					rq = next + trace.ReqID(rng.Intn(5000))
				}
				if rng.Intn(2) == 0 {
					put(rq)
					open = append(open, rq)
				} else {
					del(rq) // a replayed Wait on a request that may not exist
				}
				check(step, rq, rq-1, rq+1)
			case r < pReplay+pGap:
				next += trace.ReqID(1 + rng.Intn(3)) // blocking Recv/Probe IDs
				check(step, next-1)
			default:
				// One Sendrecv-like exchange: Isend + Irecv, then a completion.
				k := 1 + rng.Intn(3)
				for i := 0; i < k; i++ {
					next++
					put(next)
					open = append(open, next)
				}
				check(step, next+1)
				if rng.Float64() < pKeep {
					// Waitany/Test*: completed, the records stay.
					kept = append(kept, open...)
				} else {
					// Waitall: every named request is freed.
					for _, rq := range open {
						del(rq)
					}
				}
				open = open[:0]
				check(step, next)
			}
			if len(kept) > 0 && rng.Intn(50) == 0 {
				// A later Wait finally frees a kept request.
				i := rng.Intn(len(kept))
				del(kept[i])
				kept = append(kept[:i], kept[i+1:]...)
				check(step)
			}
			if rng.Intn(100) == 0 {
				c := w.clone()
				if c.records() != len(ref) || len(c.slots) > len(w.slots)-w.lo {
					t.Fatalf("step %d: clone holds %d records in %d slots; original %d in %d from slot %d",
						step, c.records(), len(c.slots), w.records(), len(w.slots), w.lo)
				}
				for rq, want := range ref {
					if got, ok := c.get(rq); !ok || got != want {
						t.Fatalf("step %d: clone get(%d) = %d,%v, want %d", step, rq, got, ok, want)
					}
				}
			}
		}
	})
}

// TestRequestWindowStaysSmallUnderKeptRecords: one record kept from the
// start of a long run of freed requests must not pin a window that grows
// with the run — it moves to the spill map and still reads as done.
func TestRequestWindowStaysSmallUnderKeptRecords(t *testing.T) {
	var w reqWindow
	w.put(1, 0)
	for rq := trace.ReqID(2); rq < 100_000; rq += 2 {
		w.put(rq, int(rq))
		w.put(rq+1, int(rq)+1)
		w.del(rq)
		w.del(rq + 1)
		if c := cap(w.slots); c > 4*reqSpan(3) {
			t.Fatalf("after request %d the window's slice holds %d slots for 1 kept record", rq, c)
		}
	}
	if ts, ok := w.get(1); !ok || ts != 0 || w.records() != 1 {
		t.Fatalf("kept record reads %d,%v (%d records), want 0,true (1)", ts, ok, w.records())
	}
}
