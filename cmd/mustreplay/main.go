// Command mustreplay records MPI event traces and analyzes them offline
// (postmortem deadlock detection): run an application once with recording
// enabled — with no analysis overhead beyond writing the trace — then
// replay the trace through the wait-state transition system later.
//
//	mustreplay -record trace.jsonl -workload fig2b -procs 3
//	mustreplay -analyze trace.jsonl
//
// Offline analysis applies the same strict blocking model (Sec. 3.3), so
// potential deadlocks hidden by send buffering are found too.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dwst/internal/centralized"
	"dwst/internal/event"
	"dwst/internal/mpisim"
	"dwst/internal/session"
	"dwst/mpi"
)

func main() {
	var (
		record   = flag.String("record", "", "record a run's event trace to this file")
		analyze  = flag.String("analyze", "", "analyze a recorded trace file")
		wl       = flag.String("workload", "stress", "workload to record: a session workload name (see cmd/mustrun)")
		procs    = flag.Int("procs", 4, "ranks for recording")
		iters    = flag.Int("iters", 30, "workload iterations")
		htmlPath = flag.String("html", "", "write the HTML report here")
	)
	flag.Parse()

	switch {
	case *record != "":
		if err := doRecord(*record, *wl, *procs, *iters); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *analyze != "":
		if err := doAnalyze(*analyze, *htmlPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(path, wl string, procs, iters int) error {
	prog, err := (&session.Spec{Workload: wl, Iters: iters}).Program()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := event.NewRecorder(f, procs)
	if err != nil {
		return err
	}
	w := mpisim.NewWorld(mpisim.Config{
		Procs:       procs,
		Sink:        rec,
		HangTimeout: 2 * time.Second, // recording runs have no tool to abort them
	})
	runErr := w.Run(func(p *mpisim.Proc) { prog(mpi.NewProc(p)) })
	if err := rec.Close(); err != nil {
		return err
	}
	if runErr != nil {
		fmt.Printf("run ended with: %v (trace recorded up to the hang)\n", runErr)
	} else {
		fmt.Println("run completed cleanly")
	}
	fmt.Printf("recorded trace of %d ranks to %s\n", procs, path)
	return nil
}

func doAnalyze(path, htmlPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	procs, evs, err := event.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %d events of %d ranks\n", len(evs), procs)
	a := centralized.NewAnalyzer(procs)
	a.FeedAll(evs)
	res := a.Detect()
	if !res.Deadlock {
		fmt.Println("no deadlock in the recorded execution")
		return nil
	}
	fmt.Printf("DEADLOCK: ranks %v (cycle %v)\n", res.Deadlocked, res.Cycle)
	if res.Unexpected > 0 {
		fmt.Printf("unexpected wildcard matches: %d\n", res.Unexpected)
	}
	if htmlPath != "" {
		if err := os.WriteFile(htmlPath, []byte(res.HTML.String()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", htmlPath)
	}
	os.Exit(1)
	return nil
}
