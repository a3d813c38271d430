// Package report generates the user-facing deadlock outputs, mirroring
// MUST's reporting: an HTML error report and a DOT rendering of the
// wait-for graph of the deadlocked processes. Both are streamed to a writer
// when somebody asks (Figure 10(b) shows output generation dominating
// detection at scale — the full graph of the wildcard case is p² lines
// nobody reads), so a detection result carries them as Artifacts.
package report

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"dwst/internal/dws"
	"dwst/internal/waitstate"
	"dwst/internal/wfg"
)

// UnexpectedMatch describes a Section 3.3 situation in a report.
type UnexpectedMatch struct {
	RecvRank, RecvTS               int
	MatchedSendRank, MatchedSendTS int
	ActiveSendRank, ActiveSendTS   int
}

// Data is the input of HTML report generation.
type Data struct {
	Procs             int
	Deadlocked        []int
	Cycle             []int
	Entries           map[int]*dws.WaitEntry
	UnexpectedMatches []UnexpectedMatch
	Arcs              int
	// Partial marks a degraded report: the tool nodes hosting
	// UnknownRanks crashed, so those ranks' wait states are unknown and
	// conservatively modeled as permanently blocked.
	Partial      bool
	UnknownRanks []int
	// DeadRanks are crashed application ranks, DeadLastCalls their
	// completed call counts, and FailureBlocked the live ranks
	// transitively blocked on them (a deadlock-by-failure report).
	DeadRanks      []int
	DeadLastCalls  map[int]int
	FailureBlocked []int
	// StalledRanks are the ranks the progress watchdog flagged.
	StalledRanks []int
}

// Artifact is one report output — the HTML page, the full DOT graph — that
// is rendered when asked for, not when the deadlock is found: WriteTo
// streams it, String builds it in memory. It holds what rendering needs
// (the detection's entries, its snapshot), never the rendered bytes. The
// zero Artifact is empty: no deadlock, nothing to render.
type Artifact struct {
	render func(w io.Writer) error
}

// Render makes an Artifact of a streaming renderer.
func Render(render func(w io.Writer) error) Artifact { return Artifact{render: render} }

// Empty reports whether there is nothing to render.
func (a Artifact) Empty() bool { return a.render == nil }

// WriteTo implements io.WriterTo.
func (a Artifact) WriteTo(w io.Writer) (int64, error) {
	if a.render == nil {
		return 0, nil
	}
	cw := countingWriter{w: w}
	err := a.render(&cw)
	return cw.n, err
}

// String renders the artifact in memory ("" when empty or failed).
func (a Artifact) String() string {
	var sb strings.Builder
	if _, err := a.WriteTo(&sb); err != nil {
		return ""
	}
	return sb.String()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DOT renders the wait-for graph of the given processes.
func DOT(g *wfg.Graph, procs []int) string {
	return Render(func(w io.Writer) error { return g.DOT(w, procs) }).String()
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html>
<head><title>MUST-style Deadlock Report</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 4px 8px; }
.err { color: #b00; font-weight: bold; }
</style></head>
<body>
<h1>Deadlock detected</h1>
<p class="err">{{.NumDead}} of {{.Procs}} processes are deadlocked
({{.Arcs}} wait-for arcs).</p>
{{if .Partial}}<p class="err">PARTIAL REPORT: tool nodes hosting ranks
{{.UnknownStr}} crashed; their wait state is unknown and conservatively
treated as permanently blocked. Conclusions about these ranks (and
processes waiting on them) reflect tool degradation, not necessarily
application state.</p>{{end}}
{{if .DeadRanks}}<p class="err">DEADLOCK BY FAILURE: application
{{if eq (len .DeadRanks) 1}}rank{{else}}ranks{{end}} {{.DeadStr}} crashed.
{{if .FailureBlockedStr}}Ranks {{.FailureBlockedStr}} are transitively
blocked on the failure.{{end}} The remaining waits are unsatisfiable
because of the process failure, not a communication cycle.</p>{{end}}
{{if .StalledStr}}<p class="err">The progress watchdog flagged ranks
{{.StalledStr}} as stalled: alive, not blocked in MPI, but issuing no
calls past the quiet period.</p>{{end}}
{{if .Cycle}}<p>Dependency cycle: {{.CycleStr}}</p>{{end}}
<h2>Wait-for conditions</h2>
<table>
<tr><th>Rank</th><th>Operation</th><th>Semantics</th><th>Condition</th></tr>
{{range .Rows}}<tr><td>{{.Rank}}</td><td>{{.Op}}</td><td>{{.Sem}}</td><td>{{.Desc}}</td></tr>
{{end}}</table>
{{if .Unexpected}}
<h2>Unexpected matches (unsafe wildcard receives)</h2>
<ul>
{{range .Unexpected}}<li>{{.}}</li>
{{end}}</ul>
<p>The strict blocking model (all standard sends blocking, all collectives
synchronizing) disagreed with the matching decisions of the MPI
implementation; the reported deadlock may not manifest with every MPI
library, but the program is unsafe.</p>
{{end}}
</body></html>
`))

type row struct {
	Rank int
	Op   string
	Sem  string
	Desc string
}

// HTML renders the deadlock report in memory.
func HTML(d *Data) string {
	return Render(func(w io.Writer) error { return WriteHTML(w, d) }).String()
}

// WriteHTML streams the deadlock report.
func WriteHTML(w io.Writer, d *Data) error {
	rows := make([]row, 0, len(d.Deadlocked))
	for _, r := range d.Deadlocked {
		e := d.Entries[r]
		sem := "AND"
		if e.Sem == dws.SemOr {
			sem = "OR"
		}
		op := fmt.Sprintf("%v (timestamp %d)", e.Kind, e.TS)
		switch e.State {
		case dws.Unknown:
			op = "unknown (tool node crashed)"
		case dws.Crashed:
			op = fmt.Sprintf("crashed (after %d MPI calls)", e.LastCall)
		}
		rows = append(rows, row{
			Rank: r,
			Op:   op,
			Sem:  sem,
			Desc: e.Desc,
		})
	}
	cyc := make([]string, 0, len(d.Cycle))
	for _, c := range d.Cycle {
		cyc = append(cyc, fmt.Sprintf("rank %d", c))
	}
	ums := make([]string, 0, len(d.UnexpectedMatches))
	for _, u := range d.UnexpectedMatches {
		ums = append(ums, fmt.Sprintf(
			"wildcard receive (rank %d, ts %d) matched the inactive send (rank %d, ts %d) while the active send (rank %d, ts %d) could match it",
			u.RecvRank, u.RecvTS, u.MatchedSendRank, u.MatchedSendTS, u.ActiveSendRank, u.ActiveSendTS))
	}
	deadRanks := make([]string, 0, len(d.DeadRanks))
	for _, rk := range d.DeadRanks {
		if lc, ok := d.DeadLastCalls[rk]; ok {
			deadRanks = append(deadRanks, fmt.Sprintf("%d (after %d calls)", rk, lc))
		} else {
			deadRanks = append(deadRanks, fmt.Sprintf("%d", rk))
		}
	}
	return htmlTmpl.Execute(w, map[string]any{
		"Procs":             d.Procs,
		"NumDead":           len(d.Deadlocked),
		"Arcs":              d.Arcs,
		"Cycle":             d.Cycle,
		"CycleStr":          strings.Join(cyc, " → ") + " → " + firstCycle(cyc),
		"Rows":              rows,
		"Unexpected":        ums,
		"Partial":           d.Partial,
		"UnknownStr":        joinInts(d.UnknownRanks),
		"DeadRanks":         d.DeadRanks,
		"DeadStr":           strings.Join(deadRanks, ", "),
		"FailureBlockedStr": joinInts(d.FailureBlocked),
		"StalledStr":        joinInts(d.StalledRanks),
	})
}

func firstCycle(cyc []string) string {
	if len(cyc) == 0 {
		return ""
	}
	return cyc[0]
}

func joinInts(xs []int) string {
	ss := make([]string, 0, len(xs))
	for _, x := range xs {
		ss = append(ss, fmt.Sprintf("%d", x))
	}
	return strings.Join(ss, ", ")
}

// HTMLFromWaitInfo renders a deadlock report from reference wait-state
// conditions (the centralized baseline computes waitstate WaitInfo directly
// instead of distributed WaitEntry records).
func HTMLFromWaitInfo(p int, dead, cycle []int, entries map[int]waitstate.WaitInfo, arcs int) string {
	return HTML(DataFromWaitInfo(p, dead, cycle, entries, arcs))
}

// DataFromWaitInfo converts reference wait-state conditions into the HTML
// report's input.
func DataFromWaitInfo(p int, dead, cycle []int, entries map[int]waitstate.WaitInfo, arcs int) *Data {
	d := &Data{Procs: p, Deadlocked: dead, Cycle: cycle, Arcs: arcs,
		Entries: make(map[int]*dws.WaitEntry, len(entries))}
	for r, w := range entries {
		sem := dws.SemAnd
		if w.Semantics == waitstate.OrWait {
			sem = dws.SemOr
		}
		d.Entries[r] = &dws.WaitEntry{
			Rank: r, State: dws.Blocked, Kind: w.Kind, TS: w.Op.TS,
			Sem: sem, Desc: w.Desc, Targets: w.Targets,
		}
	}
	return d
}
