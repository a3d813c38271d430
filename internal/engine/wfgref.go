package engine

import (
	"dwst/internal/wfg"
)

// WFG is the reference engine: the paper's AND⊕OR wait-for graph,
// materialized arc by arc, with the generalized release fixpoint
// (internal/wfg). Its verdict defines ground truth for the differential
// comparison — including for Analysis, which evaluates the same criterion
// without materializing the graph.
type WFG struct{}

// Name implements Engine.
func (WFG) Name() string { return "wfg" }

// Analyze implements Engine.
func (WFG) Analyze(in Input) (Verdict, []int, error) {
	dl := BuildWFG(in.Snapshot).Deadlocked()
	return Classify(in.Snapshot, dl), dl, nil
}

// BuildWFG materializes the snapshot as a wait-for graph, expanding shared
// rank sets into explicit arcs. This is the one place the snapshot-to-graph
// translation lives; the crashed/unknown sink encodings are already part of
// the snapshot's Blocked map.
func BuildWFG(s *Snapshot) *wfg.Graph {
	g := wfg.New(s.Procs)
	for _, f := range s.Finished {
		g.SetFinished(f)
	}
	for rk, w := range s.Blocked {
		g.SetBlocked(rk, w.Sem, w.Expand(rk), w.Desc)
	}
	return g
}
