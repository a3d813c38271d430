package centralized

import (
	"dwst/internal/event"
)

// Analyzer is the offline (postmortem) face of the centralized tool: feed
// it a recorded event stream, then run detection on the reconstructed
// wait-state — e.g. from a trace recorded with event.Recorder during a
// production run without any online tool attached.
type Analyzer struct {
	t *tool
}

// NewAnalyzer creates an analyzer for a trace of procs ranks.
func NewAnalyzer(procs int) *Analyzer {
	return &Analyzer{t: newTool(procs)}
}

// Feed replays one recorded event. Events of one rank must be fed in their
// recorded (per-rank) order; interleaving across ranks is free.
func (a *Analyzer) Feed(ev event.Event) { a.t.process(ev) }

// FeedAll replays a whole recorded stream.
func (a *Analyzer) FeedAll(evs []event.Event) {
	for _, ev := range evs {
		a.Feed(ev)
	}
}

// Detect runs graph-based deadlock detection on the current state.
func (a *Analyzer) Detect() *Result {
	res := a.t.detectDeadlock()
	res.Detections = 1
	res.TraceOps = traceOps(a.t.mt)
	return res
}

// Progress returns the current timestamp vector (how far the wait-state
// simulation advanced per rank).
func (a *Analyzer) Progress() []int {
	out := make([]int, a.t.p)
	copy(out, a.t.l)
	return out
}
