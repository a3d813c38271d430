package detect

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dwst/internal/dws"
	"dwst/internal/trace"
)

// The files under testdata/ were written by this test at the last commit
// that built the wait-for graph arc by arc and rendered every output
// eagerly (go test ./internal/detect -run Pinned -update there): what the
// grouped analysis and the on-demand renderers produce must not differ from
// them by a byte.
var update = flag.Bool("update", false, "rewrite the pinned outputs under testdata/")

func pinned(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the pinned output:\n%s", name, got)
	}
}

// reportsOf spreads entries over first-layer nodes of fanIn ranks each.
func reportsOf(fanIn int, entries []dws.WaitEntry) []dws.WaitReport {
	var reps []dws.WaitReport
	for i, e := range entries {
		if i%fanIn == 0 {
			reps = append(reps, dws.WaitReport{Node: i / fanIn})
		}
		reps[i/fanIn].Entries = append(reps[i/fanIn].Entries, e)
	}
	return reps
}

// wildcardStorm is the Fig. 10 end state: every rank in Recv(ANY_SOURCE).
func wildcardStorm(p int) []dws.WaitEntry {
	entries := make([]dws.WaitEntry, p)
	for r := range entries {
		entries[r] = dws.WaitEntry{
			Rank: r, State: dws.Blocked, Kind: trace.Recv, Sem: dws.SemOr,
			Desc:      fmt.Sprintf("Recv(src=ANY) of rank %d waits for a send from ANY process (OR)", r),
			WildComms: []trace.CommID{trace.CommWorld}, Comm: trace.CommWorld, Tag: trace.AnyTag,
			IsWildcardRecv: true, MatchedSendProc: -1,
		}
	}
	return entries
}

// lammpsPairs is the Fig. 11 end state: neighbours 2i, 2i+1 in send–send.
func lammpsPairs(p int) []dws.WaitEntry {
	entries := make([]dws.WaitEntry, p)
	for r := range entries {
		entries[r] = blockedSend(r, r^1)
	}
	return entries
}

// TestPinnedScaleShapes runs the two benchmark end states at p=64 and pins
// what the benchmark checks at p=1024 and p=4096: arcs, groups, deadlocked
// ranks and the class graph's bytes.
func TestPinnedScaleShapes(t *testing.T) {
	const p, fanIn = 64, 4
	res := runDetection(t, NewRoot(p, p/fanIn), reportsOf(fanIn, wildcardStorm(p)))
	if res.Verdict != VerdictDeadlock || len(res.Deadlocked) != p || res.Arcs != p*(p-1) || len(res.Groups) != 1 {
		t.Fatalf("wildcard storm: verdict %v, %d deadlocked, %d arcs, %d groups",
			res.Verdict, len(res.Deadlocked), res.Arcs, len(res.Groups))
	}
	if want := "all 64 processes wait for all other processes (OR)"; res.Summary != want {
		t.Fatalf("wildcard storm summary %q, want %q", res.Summary, want)
	}
	pinned(t, "wildcard_storm_64.simplified.dot", res.SimplifiedDOT)

	res = runDetection(t, NewRoot(p, p/fanIn), reportsOf(fanIn, lammpsPairs(p)))
	if res.Verdict != VerdictDeadlock || len(res.Deadlocked) != p || res.Arcs != p || len(res.Groups) != p/2 {
		t.Fatalf("lammps pairs: verdict %v, %d deadlocked, %d arcs, %d groups",
			res.Verdict, len(res.Deadlocked), res.Arcs, len(res.Groups))
	}
	pinned(t, "lammps_pairs_64.simplified.dot", res.SimplifiedDOT)
}

// TestPinnedOnDemandOutputs renders Result.DOT and Result.HTML when asked
// and compares them with the strings the eager renderers used to store.
func TestPinnedOnDemandOutputs(t *testing.T) {
	recv := func(rank, from int) dws.WaitEntry {
		return dws.WaitEntry{
			Rank: rank, State: dws.Blocked, Kind: trace.Recv, TS: 0, Sem: dws.SemAnd,
			Targets: []int{from}, Comm: trace.CommWorld, MatchedSendProc: -1,
			Desc: fmt.Sprintf("Recv(src=%d) waits for a matching send", from),
		}
	}
	barrier := func(rank int) dws.WaitEntry {
		return dws.WaitEntry{
			Rank: rank, State: dws.Blocked, Kind: trace.Barrier, TS: 3, Sem: dws.SemAnd,
			IsColl: true, CollComm: trace.CommWorld, CollWave: 1, MatchedSendProc: -1,
			Desc: "Barrier waits for all processes of communicator 0 to join wave 1",
		}
	}
	cases := []struct {
		name    string
		root    func() *Root
		entries []dws.WaitEntry
		verdict Verdict
	}{
		{"recvrecv", func() *Root { return NewRoot(4, 2) },
			[]dws.WaitEntry{recv(0, 1), recv(1, 0), running(2), running(3)}, VerdictDeadlock},
		{"wildcard", func() *Root { return NewRoot(16, 8) }, wildcardStorm(16), VerdictDeadlock},
		// Rank 5 crashed; 4 receives from it, 3 sends to 4, the rest sit in
		// a barrier that 3, 4 and 5 will never join.
		{"rankcrash", func() *Root {
			r := NewRoot(6, 3)
			r.OnRankDown(dws.RankDown{Rank: 5, LastCall: 3})
			return r
		}, []dws.WaitEntry{barrier(0), barrier(1), barrier(2), blockedSend(3, 4), recv(4, 5),
			{Rank: 5, State: dws.Crashed, LastCall: 3, Desc: "rank 5 crashed after 3 MPI calls"}},
			VerdictDeadlockByFailure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runDetection(t, tc.root(), reportsOf(2, tc.entries))
			if res.Verdict != tc.verdict {
				t.Fatalf("verdict %v, want %v", res.Verdict, tc.verdict)
			}
			pinned(t, tc.name+".dot", res.DOT.String())
			pinned(t, tc.name+".html", res.HTML.String())
			pinned(t, tc.name+".simplified.dot", res.SimplifiedDOT)
		})
	}
}
