package report

import (
	"strings"
	"testing"

	"dwst/internal/dws"
	"dwst/internal/trace"
	"dwst/internal/waitstate"
	"dwst/internal/wfg"
)

func TestHTMLContainsConditionsAndCycle(t *testing.T) {
	d := &Data{
		Procs:      4,
		Deadlocked: []int{0, 1},
		Cycle:      []int{0, 1},
		Arcs:       2,
		Entries: map[int]*dws.WaitEntry{
			0: {Rank: 0, Kind: trace.Send, TS: 3, Sem: dws.SemAnd, Desc: "send to 1 <script>"},
			1: {Rank: 1, Kind: trace.Recv, TS: 2, Sem: dws.SemOr, Desc: "wildcard recv"},
		},
	}
	html := HTML(d)
	for _, want := range []string{
		"Deadlock detected", "2 of 4 processes", "rank 0 → rank 1 → rank 0",
		"Send", "Recv", "AND", "OR", "wildcard recv",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(html, "<script>") {
		t.Error("HTML must escape user-controlled strings")
	}
}

func TestHTMLUnexpectedMatchSection(t *testing.T) {
	d := &Data{
		Procs:      3,
		Deadlocked: []int{0},
		Entries:    map[int]*dws.WaitEntry{0: {Rank: 0, Kind: trace.Recv}},
		UnexpectedMatches: []UnexpectedMatch{{
			RecvRank: 1, RecvTS: 0, MatchedSendRank: 2, MatchedSendTS: 1,
			ActiveSendRank: 0, ActiveSendTS: 0,
		}},
	}
	html := HTML(d)
	if !strings.Contains(html, "Unexpected matches") || !strings.Contains(html, "unsafe") {
		t.Fatal("unexpected-match section missing")
	}
}

func TestDOTDelegation(t *testing.T) {
	g := wfg.New(2)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	out := DOT(g, []int{0})
	if !strings.Contains(out, "digraph WaitForGraph") {
		t.Fatalf("dot output %q", out)
	}
}

func TestHTMLFromWaitInfo(t *testing.T) {
	entries := map[int]waitstate.WaitInfo{
		0: {Proc: 0, Op: trace.Ref{Proc: 0, TS: 1}, Kind: trace.Send,
			Semantics: waitstate.AndWait, Targets: []int{1}, Desc: "send waits"},
		1: {Proc: 1, Op: trace.Ref{Proc: 1, TS: 0}, Kind: trace.Recv,
			Semantics: waitstate.OrWait, Desc: "recv waits"},
	}
	html := HTMLFromWaitInfo(2, []int{0, 1}, []int{0, 1}, entries, 2)
	for _, want := range []string{"send waits", "recv waits", "AND", "OR"} {
		if !strings.Contains(html, want) {
			t.Errorf("missing %q", want)
		}
	}
}
