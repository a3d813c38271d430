// Command detecttime regenerates Figures 10 and 11 of the paper: the total
// deadlock detection time and its breakdown (Synchronization, WFG gather,
// Graph build, Deadlock check, Output generation) across process counts,
// for two deadlock cases:
//
//   - wildcard (Fig. 10): every process issues a wildcard receive without a
//     send, producing a wait-for graph of maximal size (p² arcs) whose
//     output generation dominates at scale;
//   - lammps (Fig. 11): the 126.lammps-style send–send deadlock, whose
//     two-process cycles make detection far cheaper.
//
// The tool renders its HTML page and full DOT graph only on request, so the
// detection's own output phase covers the summary and the class graph; the
// last column times rendering both artifacts (to io.Discard) after the
// detection, which is what the paper's output phase paid for.
//
// Example:
//
//	detecttime -case wildcard -procs 64,256,1024,4096
//	detecttime -case lammps -procs 64,256,1024
package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dwst/internal/workload"
	"dwst/must"
)

func main() {
	var (
		caseFlag  = flag.String("case", "wildcard", "deadlock case: wildcard|lammps")
		procsFlag = flag.String("procs", "16,64,256,1024", "comma-separated process counts")
		fanIn     = flag.Int("fanin", 4, "TBON fan-in")
		timeout   = flag.Duration("timeout", 100*time.Millisecond, "detection quiescence timeout")
	)
	flag.Parse()

	fmt.Printf("# Figure %s: deadlock detection time (%s case, fanin=%d)\n",
		map[string]string{"wildcard": "10", "lammps": "11"}[*caseFlag], *caseFlag, *fanIn)
	fmt.Printf("%8s %10s %12s | %7s %7s %7s %7s %7s | %10s\n",
		"procs", "arcs", "total(ms)", "sync%", "gather%", "build%", "check%", "output%", "render(ms)")

	for _, pStr := range strings.Split(*procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(pStr))
		if err != nil {
			panic(err)
		}
		opts := must.Options{FanIn: *fanIn, Timeout: *timeout}
		var rep *must.Report
		switch *caseFlag {
		case "wildcard":
			rep = must.Run(p, workload.WildcardDeadlock(), opts)
		case "lammps":
			opts.Rendezvous = true // make the send-send deadlock manifest
			rep = must.Run(p, workload.SpecApps("126.lammps").Build(3, 0), opts)
		default:
			panic("unknown case")
		}
		if !rep.Deadlock {
			panic("deadlock not detected")
		}
		t := rep.Timings
		total := t.Total()
		pct := func(d time.Duration) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(d) / float64(total)
		}
		renderStart := time.Now()
		for _, a := range []io.WriterTo{rep.DOT, rep.HTML} {
			if _, err := a.WriteTo(io.Discard); err != nil {
				panic(err)
			}
		}
		render := time.Since(renderStart)
		fmt.Printf("%8d %10d %12.2f | %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %10.2f\n",
			p, rep.Arcs, float64(total)/float64(time.Millisecond),
			pct(t.Synchronization), pct(t.WFGGather), pct(t.GraphBuild),
			pct(t.DeadlockCheck), pct(t.OutputGeneration),
			float64(render)/float64(time.Millisecond))
	}
}
