package engine

import (
	"sort"

	"dwst/internal/waitstate"
)

// CMH is a Chandy–Misra–Haas style probe engine over the wait-state
// snapshot. Instead of a graph and a global release fixpoint, it runs a
// diffusing computation per suspect rank: probes flood outward along the
// expanded wait-for targets, every reached *active* process immediately
// grants its prober, and blocked processes grant back once their own wait
// condition is covered by grants (any one distinct target for OR, all
// distinct targets for AND). A suspect whose wait is never covered when
// the probe computation quiesces is deadlocked.
//
// The classic CMH algorithm detects a probe returning to its initiator,
// which is only correct for single-resource (pure AND-cycle) models. For
// the mixed AND⊕OR conditions of MPI wait states the probe echo must carry
// the release information itself: a naive "my probe came back" rule
// declares false deadlocks when an OR-wait on the cycle has a live
// alternative. The grant-propagation formulation below handles both
// semantics uniformly and reaches exactly the residue of the reference
// fixpoint — by a different mechanism, which is the point of running it
// as a differential check.
//
// Decisions are memoized across initiators: a probe round fully engages
// the closure of its initiator, so the released/stuck status computed for
// every engaged rank is final (releasedness depends only on descendants,
// all of which are in the closure).
type CMH struct{}

// Name implements Engine.
func (CMH) Name() string { return "cmh" }

// probe is one wait-for edge traversal: `from` asks whether `to` can
// still make progress.
type probe struct{ from, to int }

// Analyze implements Engine.
func (CMH) Analyze(in Input) (Verdict, []int, error) {
	s := in.Snapshot.Flat()
	finished := make(map[int]bool, len(s.Finished))
	for _, f := range s.Finished {
		finished[f] = true
	}

	decided := make(map[int]bool, len(s.Blocked))  // blocked ranks with a final status
	released := make(map[int]bool, len(s.Blocked)) // subset of decided that can progress

	for _, init := range sortedKeys(blockedSet(s)) {
		if decided[init] {
			continue
		}
		runProbeRound(s, finished, decided, released, init)
	}

	var dead []int
	for rk := range s.Blocked {
		if !released[rk] {
			dead = append(dead, rk)
		}
	}
	sort.Ints(dead)
	return Classify(s, dead), dead, nil
}

// runProbeRound engages the closure of one initiator and decides every
// rank it reaches. Mutates decided/released.
func runProbeRound(s *Snapshot, finished, decided, released map[int]bool, init int) {
	engaged := map[int]bool{}        // blocked ranks pulled into this round
	granted := map[int]bool{}        // engaged ranks whose wait is covered
	probers := map[int][]int{}       // host → blocked ranks awaiting its grant
	grants := map[int]map[int]bool{} // host → distinct targets that granted it
	var probes []probe               // probe worklist
	var grantQ []probe               // grant worklist: {granting target, receiving host}

	engage := func(rk int) {
		engaged[rk] = true
		grants[rk] = map[int]bool{}
		w := s.Blocked[rk]
		if w.Sem != waitstate.OrWait && len(w.Targets) == 0 {
			// AND over ∅ is ⊤: released with no help needed.
			granted[rk] = true
			return
		}
		for _, t := range w.Targets {
			probes = append(probes, probe{from: rk, to: t})
		}
	}
	engage(init)

	// deliverGrant records that target t granted host h and, if that
	// covers h's wait, releases h towards everything probing it.
	deliverGrant := func(h, t int) {
		if grants[h][t] {
			return
		}
		grants[h][t] = true
		if granted[h] || !waitCovered(s.Blocked[h], grants[h]) {
			return
		}
		granted[h] = true
		for _, p := range probers[h] {
			grantQ = append(grantQ, probe{from: h, to: p})
		}
	}

	for len(probes) > 0 || len(grantQ) > 0 {
		if len(grantQ) > 0 {
			g := grantQ[len(grantQ)-1]
			grantQ = grantQ[:len(grantQ)-1]
			deliverGrant(g.to, g.from)
			continue
		}
		p := probes[len(probes)-1]
		probes = probes[:len(probes)-1]
		to := p.to
		if _, blocked := s.Blocked[to]; !blocked {
			// An active (or merely stalled) process can still make
			// progress; a finished one never will.
			if !finished[to] {
				deliverGrant(p.from, to)
			}
			continue
		}
		if decided[to] {
			if released[to] {
				deliverGrant(p.from, to)
			}
			continue
		}
		probers[to] = append(probers[to], p.from)
		if engaged[to] {
			if granted[to] {
				deliverGrant(p.from, to)
			}
			continue
		}
		engage(to)
		if granted[to] {
			deliverGrant(p.from, to)
		}
	}

	// Quiescence: every engaged rank's status is now final.
	for rk := range engaged {
		decided[rk] = true
		if granted[rk] {
			released[rk] = true
		}
	}
}

// waitCovered reports whether the grant set satisfies the wait condition:
// OR needs any one grant (but OR over ∅ is ⊥, never covered); AND needs a
// grant from every distinct target.
func waitCovered(w Wait, grants map[int]bool) bool {
	if w.Sem == waitstate.OrWait {
		return len(w.Targets) > 0 && len(grants) > 0
	}
	for _, t := range w.Targets {
		if !grants[t] {
			return false
		}
	}
	return true
}

func blockedSet(s *Snapshot) map[int]bool {
	out := make(map[int]bool, len(s.Blocked))
	for rk := range s.Blocked {
		out[rk] = true
	}
	return out
}
