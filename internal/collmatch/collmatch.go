// Package collmatch implements the tool's collective matching over the
// whole TBON (paper [10]): first-layer nodes report when their hosted
// participants of a collective are active, internal nodes aggregate these
// reports order-preservingly (a node forwards a world-collective report only
// once all its children reported — paper [12]), and the root determines when
// a collective's process group is complete, broadcasting the collectiveAck
// that lets the wait-state layer advance the participants (Rule 3).
//
// Collectives on derived communicators (MPI_Comm_dup / MPI_Comm_split) use
// per-activation increments instead of subtree aggregation, because interior
// nodes do not know which leaves host group members; the root additionally
// maintains the communicator registry, learning memberships from the
// creation collectives and "sealing" a communicator once every parent-group
// rank reported its created communicator.
//
// Robustness: completion at the root is coverage-based, not count-based —
// world reports carry the first-layer leaf range [Lo, Hi) they cover, and
// per-activation reports carry the activating rank, so duplicated or
// re-emitted Ready messages (crash recovery re-sends everything
// unacknowledged) are idempotent. After a tool-node crash the tree
// broadcasts Resync: every aggregator flushes its held partial reports and
// degrades to pass-through (the reattached topology no longer matches its
// child-count assumption), and leaves re-emit unacknowledged reports; the
// root re-broadcasts the Ack for any wave it already completed.
package collmatch

import (
	"fmt"
	"sort"

	"dwst/internal/trace"
)

// Ready is the collectiveReady message: count participants of (Comm, Wave)
// are active below the sender. Kind and Root carry the call signature for
// collective-mismatch checking (all participants of a wave must issue the
// same collective with the same root) — one of MUST's classic correctness
// checks beyond deadlock detection.
type Ready struct {
	Comm  trace.CommID
	Wave  int
	Count int
	World bool // aggregate through the tree (group == MPI_COMM_WORLD)
	Kind  trace.Kind
	Root  int // root group rank for rooted collectives, -1 otherwise

	// Lo/Hi is the contiguous first-layer leaf range [Lo, Hi) this world
	// report covers; the root completes a world wave when the union of
	// received ranges covers all leaves, which makes duplicates harmless.
	Lo, Hi int
	// Rank is the activating rank for per-activation (non-world) reports,
	// the root's deduplication key.
	Rank int
}

// Resync is broadcast down the tree after a tool-node crash: aggregators
// flush held partial reports and switch to pass-through, and first-layer
// nodes re-emit every Ready not yet acknowledged by a collective Ack.
type Resync struct{}

// Mismatch reports that participants of one collective wave issued
// incompatible calls (different operations or different roots).
type Mismatch struct {
	Comm       trace.CommID
	Wave       int
	WantKind   trace.Kind
	GotKind    trace.Kind
	WantRoot   int
	GotRoot    int
	SampleRank int // a rank involved in the conflicting call, if known
}

func (m Mismatch) String() string {
	if m.WantKind != m.GotKind {
		return fmt.Sprintf("collective mismatch on communicator %d (wave %d): %v vs %v",
			m.Comm, m.Wave, m.WantKind, m.GotKind)
	}
	return fmt.Sprintf("root mismatch on communicator %d (wave %d): %v with root %d vs root %d",
		m.Comm, m.Wave, m.WantKind, m.WantRoot, m.GotRoot)
}

// Ack is the collectiveAck message broadcast from the root: all participants
// of (Comm, Wave) are active.
type Ack struct {
	Comm trace.CommID
	Wave int
}

// Member is the communicator-registry message: Rank belongs to the
// communicator NewComm, which was created by collective wave (Parent,
// ParentWave).
type Member struct {
	NewComm    trace.CommID
	Rank       int
	Parent     trace.CommID
	ParentWave int
}

type waveKey struct {
	comm trace.CommID
	wave int
}

// Leaf tracks collective activations of one first-layer node.
type Leaf struct {
	id     int // first-layer node index (coverage unit for world reports)
	hosted int // ranks hosted by this node (all belong to world)
	active map[waveKey]*leafWave
}

type leafWave struct {
	count int
	kind  trace.Kind
	root  int
}

// NewLeaf returns a tracker for first-layer node id hosting `hosted` ranks.
func NewLeaf(id, hosted int) *Leaf {
	return &Leaf{id: id, hosted: hosted, active: make(map[waveKey]*leafWave)}
}

// Activate records that one hosted rank activated its operation of
// (comm, wave) with the given call signature. world marks communicators
// whose group is the full world. It returns the Ready message to send
// upward (if any) and a Mismatch when hosted ranks disagree on the call.
func (l *Leaf) Activate(comm trace.CommID, wave int, world bool, kind trace.Kind, root, rank int) (Ready, bool, *Mismatch) {
	if !world {
		return Ready{Comm: comm, Wave: wave, Count: 1, Kind: kind, Root: root, Rank: rank}, true, nil
	}
	k := waveKey{comm, wave}
	lw := l.active[k]
	if lw == nil {
		lw = &leafWave{kind: kind, root: root}
		l.active[k] = lw
	}
	var mism *Mismatch
	if lw.kind != kind || lw.root != root {
		mism = &Mismatch{Comm: comm, Wave: wave,
			WantKind: lw.kind, GotKind: kind,
			WantRoot: lw.root, GotRoot: root, SampleRank: rank}
	}
	lw.count++
	if lw.count == l.hosted {
		r := Ready{Comm: comm, Wave: wave, Count: l.hosted, World: true,
			Kind: lw.kind, Root: lw.root, Lo: l.id, Hi: l.id + 1}
		delete(l.active, k)
		return r, true, mism
	}
	return Ready{}, false, mism
}

// Clone returns a deep copy of the leaf tracker for checkpointing.
func (l *Leaf) Clone() *Leaf {
	cl := &Leaf{id: l.id, hosted: l.hosted, active: make(map[waveKey]*leafWave, len(l.active))}
	for k, lw := range l.active {
		cp := *lw
		cl.active[k] = &cp
	}
	return cl
}

// Aggregator merges Ready messages at an internal node.
type Aggregator struct {
	children    int
	passThrough bool
	partial     map[waveKey]*agg
	order       []waveKey // pending waves in first-report order
	// forwarded holds, per communicator, one past the highest world wave
	// this node forwarded. A child reports wave w+1 only after its ranks
	// got wave w's Ack, so a report below the mark re-emits a wave already
	// forwarded.
	forwarded map[trace.CommID]int
}

type agg struct {
	reported int
	kind     trace.Kind
	root     int
	parts    []Ready
}

// NewAggregator returns an aggregator for a node with the given child count.
func NewAggregator(children int) *Aggregator {
	return &Aggregator{children: children, partial: make(map[waveKey]*agg)}
}

// OnReady processes a child's Ready and returns the reports to forward
// upward. World reports are held until every child reported
// (order-preserving aggregation); others pass through. A call-signature
// disagreement across children yields a Mismatch.
//
// A completed wave whose child reports cover a contiguous leaf range is
// forwarded as one merged report; otherwise (possible only after crash
// reattachment rewired the subtree) the parts are forwarded individually
// so the root's coverage tracking stays exact.
//
// Children report disjoint leaf ranges, so completion counts distinct
// coverage, not messages: a respawned worker's leaf re-emits the Readys
// its predecessor already sent, and a re-emitted report must neither
// stand in for a sibling that has not reported nor be held after its
// wave was forwarded. A report overlapping one already held is dropped; a
// report of a wave already forwarded passes through (the root re-sends
// that wave's Ack).
func (a *Aggregator) OnReady(r Ready) ([]Ready, *Mismatch) {
	if !r.World || a.passThrough {
		return []Ready{r}, nil
	}
	if r.Wave < a.forwarded[r.Comm] {
		return []Ready{r}, nil
	}
	k := waveKey{r.Comm, r.Wave}
	p := a.partial[k]
	if p == nil {
		p = &agg{kind: r.Kind, root: r.Root}
		a.partial[k] = p
		a.order = append(a.order, k)
	}
	for _, q := range p.parts {
		if r.Lo < q.Hi && q.Lo < r.Hi {
			return nil, nil
		}
	}
	var mism *Mismatch
	if p.kind != r.Kind || p.root != r.Root {
		mism = &Mismatch{Comm: r.Comm, Wave: r.Wave,
			WantKind: p.kind, GotKind: r.Kind,
			WantRoot: p.root, GotRoot: r.Root}
	}
	p.parts = append(p.parts, r)
	p.reported++
	if p.reported < a.children {
		return nil, mism
	}
	a.remove(k)
	if a.forwarded == nil {
		a.forwarded = make(map[trace.CommID]int)
	}
	a.forwarded[r.Comm] = r.Wave + 1
	if merged, ok := mergeContiguous(p.parts); ok {
		merged.Kind = p.kind
		merged.Root = p.root
		return []Ready{merged}, mism
	}
	return p.parts, mism
}

// Flush switches the aggregator to pass-through mode and returns every
// held partial report (in arrival order) for individual forwarding. Called
// on Resync after a crash changed the topology under the aggregator.
func (a *Aggregator) Flush() []Ready {
	a.passThrough = true
	var out []Ready
	for _, k := range a.order {
		if p := a.partial[k]; p != nil {
			out = append(out, p.parts...)
		}
	}
	a.partial = make(map[waveKey]*agg)
	a.order = nil
	return out
}

func (a *Aggregator) remove(k waveKey) {
	delete(a.partial, k)
	for i, o := range a.order {
		if o == k {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

// mergeContiguous merges world reports whose [Lo, Hi) ranges tile a
// contiguous interval into one report; ok is false when they do not.
func mergeContiguous(parts []Ready) (Ready, bool) {
	sorted := append([]Ready(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	count := 0
	for i, r := range sorted {
		if i > 0 && r.Lo != sorted[i-1].Hi {
			return Ready{}, false
		}
		count += r.Count
	}
	first := sorted[0]
	return Ready{Comm: first.Comm, Wave: first.Wave, Count: count, World: true,
		Kind: first.Kind, Root: first.Root, Lo: first.Lo, Hi: sorted[len(sorted)-1].Hi}, true
}

// Root tracks collective completion and the communicator registry.
type Root struct {
	world  int // number of processes
	leaves int // number of first-layer nodes (world coverage target)

	groups map[trace.CommID][]int // sealed communicator groups
	// building holds memberships of communicators still being created.
	building map[trace.CommID][]int
	// creators tracks the parent-group ranks that reported per creating
	// wave; a wave seals its communicators when all of them reported.
	creators map[waveKey]map[int]bool
	// createdBy lists the communicators a creating wave produced.
	createdBy map[waveKey][]trace.CommID

	waves map[waveKey]*waveState
	acked map[waveKey]bool
	sigs  map[waveKey]waveSig
}

// waveState is the root's coverage tracking for one incomplete wave: leaf
// ids for world waves, ranks for per-activation waves.
type waveState struct {
	world   bool
	covered map[int]bool
}

type waveSig struct {
	kind trace.Kind
	root int
}

// NewRoot returns the root tracker for p world processes and the given
// number of first-layer nodes (0 when the caller never sends world-mode
// reports, e.g. the centralized tool).
func NewRoot(p, leaves int) *Root {
	r := &Root{
		world:     p,
		leaves:    leaves,
		groups:    make(map[trace.CommID][]int),
		building:  make(map[trace.CommID][]int),
		creators:  make(map[waveKey]map[int]bool),
		createdBy: make(map[waveKey][]trace.CommID),
		waves:     make(map[waveKey]*waveState),
		acked:     make(map[waveKey]bool),
		sigs:      make(map[waveKey]waveSig),
	}
	world := make([]int, p)
	for i := range world {
		world[i] = i
	}
	r.groups[trace.CommWorld] = world
	return r
}

// Group returns the member ranks of a sealed communicator (nil if unknown).
func (r *Root) Group(c trace.CommID) []int { return r.groups[c] }

// GroupSize returns the size of a sealed communicator, or 0 if not sealed.
func (r *Root) GroupSize(c trace.CommID) int { return len(r.groups[c]) }

// OnReady accumulates a Ready and returns the Acks that became complete,
// plus a Mismatch when the wave's call signature conflicts with earlier
// reports. Duplicate coverage is ignored; a Ready for an already-acked
// wave re-returns that wave's Ack (the sender missed the broadcast, e.g.
// it was re-emitted after crash recovery).
func (r *Root) OnReady(m Ready) ([]Ack, *Mismatch) {
	k := waveKey{m.Comm, m.Wave}
	if r.acked[k] {
		return []Ack{{Comm: k.comm, Wave: k.wave}}, nil
	}
	var mism *Mismatch
	if sig, ok := r.sigs[k]; !ok {
		r.sigs[k] = waveSig{kind: m.Kind, root: m.Root}
	} else if sig.kind != m.Kind || sig.root != m.Root {
		mism = &Mismatch{Comm: m.Comm, Wave: m.Wave,
			WantKind: sig.kind, GotKind: m.Kind,
			WantRoot: sig.root, GotRoot: m.Root}
	}
	ws := r.waves[k]
	if ws == nil {
		ws = &waveState{world: m.World, covered: make(map[int]bool)}
		r.waves[k] = ws
	}
	if m.World {
		for leaf := m.Lo; leaf < m.Hi; leaf++ {
			ws.covered[leaf] = true
		}
	} else {
		if ws.covered[m.Rank] {
			return nil, mism
		}
		ws.covered[m.Rank] = true
	}
	return r.tryComplete(k), mism
}

// OnMember records a communicator membership report and returns Acks that
// became complete because a communicator got sealed. Duplicate reports
// (crash-recovery re-emission) are absorbed by keying creator progress on
// the reporting rank.
func (r *Root) OnMember(m Member) []Ack {
	ck := waveKey{m.Parent, m.ParentWave}
	if r.creators[ck] == nil {
		r.creators[ck] = make(map[int]bool)
		r.createdBy[ck] = nil
	}
	if r.creators[ck][m.Rank] {
		return nil
	}
	r.creators[ck][m.Rank] = true
	r.building[m.NewComm] = append(r.building[m.NewComm], m.Rank)
	seen := false
	for _, c := range r.createdBy[ck] {
		if c == m.NewComm {
			seen = true
			break
		}
	}
	if !seen {
		r.createdBy[ck] = append(r.createdBy[ck], m.NewComm)
	}
	parentSize := len(r.groups[m.Parent])
	if parentSize == 0 || len(r.creators[ck]) < parentSize {
		return nil
	}
	// Seal every communicator this wave created.
	var acks []Ack
	for _, c := range r.createdBy[ck] {
		r.groups[c] = sortedCopy(r.building[c])
		delete(r.building, c)
		// Sealing may complete pending collectives on the new communicator.
		for key := range r.waves {
			if key.comm == c {
				acks = append(acks, r.tryComplete(key)...)
			}
		}
	}
	delete(r.creators, ck)
	delete(r.createdBy, ck)
	return acks
}

func (r *Root) tryComplete(k waveKey) []Ack {
	ws := r.waves[k]
	if ws == nil {
		return nil
	}
	if ws.world {
		if r.leaves == 0 || len(ws.covered) < r.leaves {
			return nil
		}
	} else {
		size := len(r.groups[k.comm])
		if size == 0 || len(ws.covered) < size {
			return nil
		}
	}
	delete(r.waves, k)
	r.acked[k] = true
	return []Ack{{Comm: k.comm, Wave: k.wave}}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
