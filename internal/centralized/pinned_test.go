package centralized

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dwst/internal/mpisim"
	"dwst/internal/workload"
	"dwst/mpi"
)

// The files under testdata/ were written by this test at the last commit
// whose detection built the wait-for graph arc by arc (go test
// ./internal/centralized -run Pinned -update there): detection on the
// analysis must not change a byte of them.
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

func simProgram(prog mpi.Program) mpisim.Program {
	return func(p *mpisim.Proc) { prog(mpi.NewProc(p)) }
}

// TestPinnedOutputs pins what the centralized tool reports on the paper's
// deadlock examples: the DOT graph, the HTML page, the cycle and the groups.
func TestPinnedOutputs(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		prog  mpi.Program
	}{
		{"recvrecv", 4, workload.RecvRecvDeadlock()},
		{"wildcard", 8, workload.WildcardDeadlock()},
		{"fig2b", 3, workload.Fig2b()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(cfg(tc.procs), simProgram(tc.prog))
			if !res.Deadlock {
				t.Fatalf("no deadlock: %+v", res)
			}
			pinned(t, tc.name+".dot", res.DOT.String())
			pinned(t, tc.name+".html", res.HTML.String())
			pinned(t, tc.name+".txt", fmt.Sprintf("deadlocked %v\ncycle %v\ngroups %v\n", res.Deadlocked, res.Cycle, res.Groups))
		})
	}
}
