package engine

import (
	"sort"

	"dwst/internal/waitstate"
)

// TwoCycle is the cheap mutual-wait screen (the datalog-style 2-cycle
// rule): ranks a and b are deadlocked if each is blocked waiting on the
// other and neither wait can be satisfied by anyone else. It is sound but
// deliberately incomplete — a pre-filter that catches the common
// send–send / recv–recv pair deadlocks in O(arcs) without a fixpoint.
//
// Soundness requires that the peer is *necessary*: an AND-wait always
// needs every target, but an OR-wait only pins the pair when the peer is
// its sole alternative. Waits with live alternatives make the screen
// inconclusive, never wrong.
//
// The screen returns ErrInconclusive when it finds no pair: absence of a
// 2-cycle proves nothing about longer cycles or knots, so "no finding" is
// a skip, not a VerdictNone.
type TwoCycle struct{}

// Name implements Engine.
func (TwoCycle) Name() string { return "twocycle" }

// Partial implements PartialDetector: the witness set is a subset of the
// true residue (only the pair members, not everything blocked behind them).
func (TwoCycle) Partial() bool { return true }

// Analyze implements Engine.
func (TwoCycle) Analyze(in Input) (Verdict, []int, error) {
	s := in.Snapshot.Flat()
	found := map[int]bool{}
	for a, wa := range s.Blocked {
		for _, b := range wa.Targets {
			if b <= a {
				continue // each unordered pair once; skips self-loops too
			}
			wb, ok := s.Blocked[b]
			if !ok {
				continue
			}
			if pinnedOn(wa, b) && pinnedOn(wb, a) && hasTarget(wb, a) {
				found[a] = true
				found[b] = true
			}
		}
	}
	if len(found) == 0 {
		return VerdictNone, nil, ErrInconclusive
	}
	dead := make([]int, 0, len(found))
	for rk := range found {
		dead = append(dead, rk)
	}
	sort.Ints(dead)
	return Classify(s, dead), dead, nil
}

// pinnedOn reports whether the wait cannot be satisfied without progress
// of peer: AND semantics make every target necessary; an OR-wait pins the
// peer only when all its targets are the peer.
func pinnedOn(w Wait, peer int) bool {
	if w.Sem != waitstate.OrWait {
		return true
	}
	if len(w.Targets) == 0 {
		return false // OR over ∅: stuck, but not *on this peer* — and it
		// has no outgoing arc to form a pair anyway
	}
	for _, t := range w.Targets {
		if t != peer {
			return false
		}
	}
	return true
}

func hasTarget(w Wait, peer int) bool {
	for _, t := range w.Targets {
		if t == peer {
			return true
		}
	}
	return false
}
