package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"dwst/internal/event"
	"dwst/internal/mpisim"
	"dwst/mpi"
)

// stream is the event stream one program emits to a tool: what mpisim's
// PMPI-analogue sink saw, captured once per workload into memory. The
// traced pass replays it through each module from the outside.
type stream struct {
	procs   int
	perRank [][]event.Event // each rank's FIFO stream
	calls   int             // Enter events = MPI calls issued
	events  int
	hung    bool // the program deadlocked; the hang watchdog ended the capture
}

// capture runs prog on procs ranks with no tool attached and records every
// event. mo.HangTimeout is the watchdog period that ends a deadlocking
// program.
func capture(procs int, prog mpi.Program, mo mpi.Options) (*stream, error) {
	s := &stream{procs: procs, perRank: make([][]event.Event, procs)}
	mode := mpisim.Eager
	if mo.Rendezvous {
		mode = mpisim.Rendezvous
	}
	w := mpisim.NewWorld(mpisim.Config{
		Procs:                    procs,
		SendMode:                 mode,
		BufferSlots:              mo.BufferSlots,
		SynchronizingCollectives: mo.SynchronizingCollectives,
		BufferedSendCost:         mo.BufferedSendCost,
		SsendEvery:               mo.SsendEvery,
		HangTimeout:              mo.HangTimeout,
		// Every event of a rank is emitted from that rank's goroutine, so
		// the per-rank slices need no lock.
		Sink: event.Func(func(ev event.Event) {
			r := ev.Proc
			if ev.Type == event.Enter {
				r = ev.Op.Proc
			}
			s.perRank[r] = append(s.perRank[r], ev)
		}),
	})
	err := w.Run(func(p *mpisim.Proc) { prog(mpi.NewProc(p)) })
	switch {
	case errors.Is(err, mpisim.ErrHang):
		s.hung = true
	case err != nil:
		return nil, fmt.Errorf("capture: %w", err)
	}
	for _, evs := range s.perRank {
		s.events += len(evs)
		for _, ev := range evs {
			if ev.Type == event.Enter {
				s.calls++
			}
		}
	}
	return s, nil
}

// hashInto folds the stream's calls into h: every Enter event of every
// rank, in rank order. Status and CommInfo events are left out on purpose —
// they carry the matching decisions of the run that was captured (which
// sender a wildcard receive got), which differ from run to run for the same
// program; the calls themselves do not.
func (s *stream) hashInto(h hash.Hash) {
	fmt.Fprintf(h, "procs=%d;", s.procs)
	for _, evs := range s.perRank {
		for _, ev := range evs {
			if ev.Type != event.Enter {
				continue
			}
			o := ev.Op
			fmt.Fprintf(h, "%d.%d:%d,%d,%d,%d,%d,%v,%d,%d;", o.Proc, o.TS, o.Kind, o.Peer, o.Tag, o.Comm, o.Req, o.Reqs, o.SendrecvPeer, o.SendrecvTag)
		}
	}
}

func hashStreams(ss ...*stream) string {
	h := sha256.New()
	for _, s := range ss {
		s.hashInto(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// interleaved flattens the per-rank streams round-robin, one event per rank
// per turn: a fixed, legal interleaving (per-rank FIFO holds; across ranks
// the tool accepts any order) that makes replays repeat exactly.
func (s *stream) interleaved() []event.Event {
	out := make([]event.Event, 0, s.events)
	for i := 0; len(out) < s.events; i++ {
		for _, evs := range s.perRank {
			if i < len(evs) {
				out = append(out, evs[i])
			}
		}
	}
	return out
}
