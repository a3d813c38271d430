package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call into a layer, made from this
// harness. Spans live in memory until the run ends; nothing inside the
// program under test is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	// Synth marks a child derived from public Report fields (Elapsed,
	// Timings) rather than timed around a call: its duration is measured
	// by the tool, its position inside the parent is laid out by us.
	Synth   bool  `json:"synth,omitempty"`
	StartNS int64 `json:"start_ns"` // since recorder creation
	EndNS   int64 `json:"end_ns"`
}

// recorder collects spans. A nil recorder is "tracing off": every method
// is a no-op, which is what the untraced end-to-end pass runs with.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id (-1 with tracing off).
func (r *recorder) begin(name string, parent, rep int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: rep, StartNS: now, EndNS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// synth adds a child of parent covering [startNS, startNS+d) and returns
// the child's end, so consecutive children can be laid out back to back.
func (r *recorder) synth(name string, parent, rep int, startNS int64, d time.Duration) int64 {
	end := startNS + d.Nanoseconds()
	if r == nil || parent < 0 {
		return end
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Workload: r.workload, Rep: rep, Synth: true, StartNS: startNS, EndNS: end})
	return end
}

func (r *recorder) start(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].StartNS
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (overlapping children are counted once).
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	at := p.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, p.EndNS)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeNDJSON writes one JSON object per span.
func (r *recorder) writeNDJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
