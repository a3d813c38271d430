// Quickstart: write an MPI-style Go program, run it under the MUST-style
// deadlock detection tool, and inspect the report.
//
//	go run ./examples/quickstart
//
// The program contains the classic receive-receive deadlock of Figure 2(a)
// of the paper: both ranks first receive from each other, then send. The
// tool detects the cycle, aborts the run, and explains who waits for whom.
package main

import (
	"fmt"
	"os"

	"dwst/mpi"
	"dwst/must"
)

func main() {
	program := func(p *mpi.Proc) {
		peer := 1 - p.Rank()

		// BUG: both ranks receive first — nobody ever sends.
		p.Recv(peer, 0, mpi.CommWorld)
		p.Send([]byte("hello"), peer, 0, mpi.CommWorld)

		p.Finalize()
	}

	// TrackCallSites makes the report point at the exact source lines of
	// the blocked calls.
	report := must.Run(2, program, must.Options{TrackCallSites: true})

	if !report.Deadlock {
		fmt.Println("no deadlock found (unexpected for this example)")
		return
	}
	fmt.Println("deadlock detected!")
	fmt.Printf("  deadlocked ranks: %v\n", report.Deadlocked)
	fmt.Printf("  dependency cycle: %v\n", report.Cycle)
	for _, r := range report.Deadlocked {
		fmt.Printf("  rank %d: %s\n", r, report.Conditions[r])
	}

	// The tool produces the same artifacts MUST emits: an HTML report and a
	// DOT rendering of the wait-for graph.
	if err := os.WriteFile("deadlock_report.html", []byte(report.HTML.String()), 0o644); err == nil {
		fmt.Println("wrote deadlock_report.html")
	}
	if err := os.WriteFile("wait_for_graph.dot", []byte(report.DOT.String()), 0o644); err == nil {
		fmt.Println("wrote wait_for_graph.dot")
	}
}
