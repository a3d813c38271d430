package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned descriptions under testdata/")

// describeCases crosses every Kind (and one out of range) with a named peer
// or AnySource, with and without requests, with and without a call site.
func describeCases() []Op {
	var ops []Op
	for k := Kind(0); k <= numKinds; k++ {
		for _, peer := range []int{3, AnySource} {
			for _, reqs := range [][]ReqID{nil, {1, 7, 12}} {
				for _, file := range []string{"", "lammps.c"} {
					tag := 5
					if peer == AnySource {
						tag = AnyTag
					}
					ops = append(ops, Op{
						Proc: 2, TS: 17, Kind: k, Peer: peer, Tag: tag,
						Reqs: reqs, File: file, Line: 42,
					})
				}
			}
		}
	}
	return ops
}

// TestWaitDescriptionsUnchanged pins Op.Describe (and so Op.String and
// Kind.String) for every case of describeCases against the strings the
// fmt-based renderer produced, kept in testdata/describe.golden.
func TestWaitDescriptionsUnchanged(t *testing.T) {
	var sb strings.Builder
	for _, op := range describeCases() {
		fmt.Fprintf(&sb, "%d|%d|%v|%q\t%s\n", int(op.Kind), op.Peer, op.Reqs, op.File, op.Describe())
		if got := string(op.AppendDescribe([]byte("x"))); got != "x"+op.Describe() {
			t.Errorf("AppendDescribe after x = %q, Describe = %q", got, op.Describe())
		}
	}
	path := filepath.Join("testdata", "describe.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sb.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			t.Fatalf("line %d: got %q, want %q", i+1, at(got, i), w)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Fatalf("%d lines, want %d", len(got), len(strings.Split(string(want), "\n")))
	}
}

func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "<missing>"
}
