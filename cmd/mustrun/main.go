// Command mustrun executes a built-in workload under the MUST-style
// deadlock detection tool and prints the outcome, optionally writing the
// HTML report and DOT wait-for graph.
//
// Usage:
//
//	mustrun -workload recvrecv -procs 4
//	mustrun -workload wildcard -procs 64 -fanin 8
//	mustrun -workload spec:126.lammps -procs 16 -iters 50
//	mustrun -workload fig2b -procs 3 -rendezvous -html report.html -dot wfg.dot
//
// Workloads: stress, wildcard, recvrecv, fig2b, unexpected, clean, or
// spec:<name> for a SPEC MPI2007 proxy (see cmd/figures -list).
//
// SIGINT/SIGTERM drain the run: the workload is canceled through the
// tool's single cancellation path, the final report is printed marked
// PARTIAL, -stats-json is still written (with "interrupted": true), and
// mustrun exits 130. A second signal forces an immediate exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dwst/internal/report"
	"dwst/internal/session"
	"dwst/internal/supervise"
	"dwst/must"
)

func main() {
	var (
		wl         = flag.String("workload", "recvrecv", "workload: stress|wildcard|recvrecv|fig2b|unexpected|clean|spec:<name>")
		procs      = flag.Int("procs", 4, "number of MPI ranks")
		fanIn      = flag.Int("fanin", 4, "TBON fan-in")
		mode       = flag.String("mode", "distributed", "tool mode: distributed|centralized")
		timeout    = flag.Duration("timeout", 50*time.Millisecond, "detection quiescence timeout")
		iters      = flag.Int("iters", 50, "iterations (stress/spec workloads)")
		rendezvous = flag.Bool("rendezvous", false, "force synchronous standard sends")
		htmlPath   = flag.String("html", "", "write the HTML report to this file")
		dotPath    = flag.String("dot", "", "write the DOT wait-for graph to this file")
		sites      = flag.Bool("sites", false, "record call sites (reports point at source lines)")

		linkDelay  = flag.Duration("link-delay", 0, "per-message delay on tool-internal links")
		faultDrop  = flag.Float64("fault-drop", 0, "probability of dropping a tool-link message (0..1)")
		faultDup   = flag.Float64("fault-dup", 0, "probability of duplicating a tool-link message (0..1)")
		faultReord = flag.Float64("fault-reorder", 0, "probability of reordering adjacent tool-link messages (0..1)")
		faultSeed  = flag.Int64("fault-seed", 1, "deterministic seed for fault injection")
		crashNode  = flag.Int("fault-crash-node", -1, "crash this first-layer tool node (degraded-mode demo)")
		crashCount = flag.Int("fault-crash-at", 0, "envelopes the crashed node dispatches before it dies (0 = at its first step)")
		snapDeadl  = flag.Duration("snapshot-deadline", 0, "per-snapshot deadline before abort+retry (0 = default)")

		rankCrash = flag.String("rank-crash", "", "crash application ranks: rank[:atCall],... (e.g. 2:5,7)")
		rankStall = flag.String("rank-stall", "", "stall application ranks: rank:atCall:dur[:busy],... (dur 0 = forever)")
		wdQuiet   = flag.Duration("watchdog-quiet", 0, "progress watchdog quiet period (0 = disabled)")
		statsJSON = flag.String("stats-json", "", "write run statistics as JSON to this file (- for stdout)")

		memBudget = flag.Int64("mem-budget", 0, "tool-plane memory budget in bytes per process (distributed mode; 0 = the 256 MiB default)")

		differential = flag.Bool("differential", false, "also run the oracle engines (wfg, cmh, twocycle) on each snapshot and the static pre-run pass; report verdict deviations")

		recoverNodes = flag.Bool("recover", true, "exact recovery of crashed first-layer tool nodes (journal replay); active with a chan fault plan, and with -transport=tcp enables supervised worker respawn")
		journalCap   = flag.Int("journal-cap", 0, "recovery journal cap: chan suffix length forcing a checkpoint (default 512); tcp per-leaf entries before overflow disables exact respawn (default 4096)")

		transport   = flag.String("transport", "chan", "TBON transport: chan (in-process, default) | tcp (worker processes over real sockets)")
		listenAddr  = flag.String("listen", "127.0.0.1:0", "coordinator listen address (tcp)")
		workers     = flag.Int("workers", 2, "worker processes sharing the first tool layer (tcp)")
		dialTO      = flag.Duration("dial-timeout", 5*time.Second, "worker connection timeout (tcp)")
		netBudget   = flag.Duration("degrade-budget", 0, "disconnection budget before a worker's ranks are reported unknown (tcp; 0 = default 3s)")
		mustnodeBin = flag.String("mustnode-bin", "", "worker binary (default: mustnode on PATH or next to mustrun, else mustrun re-executes itself)")

		wireDrop      = flag.Float64("wire-drop", 0, "probability of dropping a wire frame in the fault proxy (tcp, 0..1)")
		wireDup       = flag.Float64("wire-dup", 0, "probability of duplicating a wire frame in the fault proxy (tcp, 0..1)")
		wireDelay     = flag.Duration("wire-delay", 0, "max uniform per-frame delay in the fault proxy (tcp)")
		wireSeed      = flag.Int64("wire-seed", 1, "deterministic seed for wire-level fault injection (tcp)")
		wirePartAfter = flag.Duration("wire-partition-after", 0, "sever all worker connections this long after listen (tcp; 0 = never)")
		wirePartFor   = flag.Duration("wire-partition-for", 0, "partition duration (tcp; heals via reconnect if under the budget)")
		killWorker    = flag.Int("kill-worker", -1, "SIGKILL this worker process mid-run (tcp; degraded-report demo)")
		killAfter     = flag.Duration("kill-after", 50*time.Millisecond, "delay before -kill-worker")

		respawnMax     = flag.Int("respawn-max", 3, "max supervised respawns per worker process before degrading (tcp with -recover; 0 = never respawn)")
		respawnBackoff = flag.Duration("respawn-backoff", 100*time.Millisecond, "base delay between respawn attempts, doubled per attempt with jitter, capped at 50x (tcp)")

		workerDial   = flag.String("worker-dial", "", "internal: run as a worker process dialing this coordinator")
		workerID     = flag.Int("worker", 0, "internal: worker index (with -worker-dial)")
		workerResume = flag.String("worker-resume", "", "internal: recovery token (with -worker-dial)")
	)
	flag.Parse()

	if *workerDial != "" {
		runWorkerMode(*workerDial, *workerID, *dialTO, *workerResume)
	}

	faultActive := *faultDrop > 0 || *faultDup > 0 || *faultReord > 0 || *crashNode >= 0 ||
		*rankCrash != "" || *rankStall != ""

	spec := session.Spec{
		Workload:         *wl,
		Procs:            *procs,
		Iters:            *iters,
		Mode:             *mode,
		FanIn:            *fanIn,
		Timeout:          session.Duration(*timeout),
		Rendezvous:       *rendezvous,
		TrackCallSites:   *sites,
		LinkDelay:        session.Duration(*linkDelay),
		SnapshotDeadline: session.Duration(*snapDeadl),
		WatchdogQuiet:    session.Duration(*wdQuiet),
		Differential:     *differential,
		MemBudget:        *memBudget,
	}
	if faultActive {
		spec.Fault = &session.FaultSpec{
			Seed:        *faultSeed,
			Drop:        *faultDrop,
			Dup:         *faultDup,
			Reorder:     *faultReord,
			RankCrashes: *rankCrash,
			RankStalls:  *rankStall,
			Recover:     recoverNodes,
			JournalCap:  *journalCap,
		}
		if *crashNode >= 0 {
			spec.Fault.Crashes = []session.CrashSpec{{Node: *crashNode, AfterEnvelopes: *crashCount}}
		}
	}
	opts, err := spec.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, err := spec.Program()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	wf := wireFlags{
		Drop: *wireDrop, Dup: *wireDup, Delay: *wireDelay, Seed: *wireSeed,
		PartitionAfter: *wirePartAfter, PartitionFor: *wirePartFor,
	}
	tcpOnly := map[string]bool{
		"listen": true, "workers": true, "dial-timeout": true, "degrade-budget": true,
		"mustnode-bin": true, "wire-drop": true, "wire-dup": true, "wire-delay": true,
		"wire-seed": true, "wire-partition-after": true, "wire-partition-for": true,
		"kill-worker": true, "kill-after": true,
		"respawn-max": true, "respawn-backoff": true,
	}
	var tcpOnlySet []string
	flag.Visit(func(f *flag.Flag) {
		if tcpOnly[f.Name] {
			tcpOnlySet = append(tcpOnlySet, "-"+f.Name)
		}
	})
	if err := validateTransportFlags(*transport, *workers, wf, *killWorker,
		*respawnMax, *respawnBackoff, tcpOnlySet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var orch *netOrchestrator
	if *transport == "tcp" {
		orch = &netOrchestrator{
			bin:        *mustnodeBin,
			workers:    *workers,
			dialTO:     *dialTO,
			wf:         wf,
			killWorker: *killWorker,
			killAfter:  *killAfter,
		}
		opts.Net = &must.NetOptions{
			Listen:     *listenAddr,
			Workers:    *workers,
			Budget:     *netBudget,
			OnListen:   orch.onListen,
			Recover:    *recoverNodes,
			JournalCap: *journalCap,
		}
		if *recoverNodes && *respawnMax > 0 {
			orch.respawnMax = *respawnMax
			orch.backoff = supervise.Backoff{Base: *respawnBackoff, Seed: *wireSeed}
			orch.ctl = &must.NetControl{}
			opts.Net.Control = orch.ctl
		}
	}

	// Graceful interruption: the first SIGINT/SIGTERM cancels the run
	// through the tool's single cancellation path (ranks unwind, the tree
	// drains and tears down), then the normal reporting below runs on
	// whatever was known, marked PARTIAL. A second signal force-exits.
	ctx, cancel := context.WithCancelCause(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "mustrun: %v — draining; the final report will be PARTIAL (signal again to force exit)\n", sig)
		cancel(fmt.Errorf("interrupted by %v", sig))
		<-sigCh
		fmt.Fprintln(os.Stderr, "mustrun: second signal, forcing exit")
		os.Exit(130)
	}()
	opts.Context = ctx

	rep := must.Run(*procs, prog, opts)
	if orch != nil {
		orch.cleanup()
		_, rep.RespawnBackoff = orch.respawnStats()
	}
	if rep.Err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", rep.Err)
		os.Exit(2)
	}
	interrupted := ctx.Err() != nil && rep.AppAborted &&
		errors.Is(rep.AbortCause, context.Cause(ctx))

	fmt.Printf("workload=%s procs=%d mode=%s transport=%s fanin=%d elapsed=%v tool-nodes=%d detections=%d\n",
		*wl, *procs, *mode, *transport, *fanIn, rep.Elapsed.Round(time.Millisecond), rep.ToolNodes, rep.Detections)
	switch {
	case interrupted:
		fmt.Printf("INTERRUPTED — %v\n", context.Cause(ctx))
	case rep.Verdict == must.VerdictDeadlockByFailure:
		fmt.Printf("DEADLOCK BY FAILURE — application rank(s) %s crashed\n", deadRankStr(rep))
		if len(rep.FailureBlocked) > 0 {
			fmt.Printf("  ranks transitively blocked on the failure: %v\n", rep.FailureBlocked)
		}
	case rep.Verdict == must.VerdictStalled:
		fmt.Printf("STALLED — progress watchdog flagged ranks %v (no MPI calls past %v)\n",
			rep.StalledRanks, *wdQuiet)
	case rep.Deadlock && rep.PotentialOnly:
		fmt.Printf("POTENTIAL DEADLOCK (did not manifest; strict blocking model, Sec. 3.3)\n")
	case rep.Deadlock:
		fmt.Printf("DEADLOCK — application aborted\n")
	case rep.FinalUnverified:
		fmt.Printf("NO VERDICT — no deadlock was found, but the final detection could not confirm there is none\n")
	default:
		fmt.Printf("no deadlock\n")
	}
	if rep.FinalUnverified {
		fmt.Printf("PARTIAL REPORT: the final detection is unverified: the tool never quiesced, or its attempts missed their deadline (%d retried)\n",
			rep.SnapshotRetries)
	}
	if interrupted {
		fmt.Printf("PARTIAL REPORT: the run was canceled before analysis completed\n")
	}
	if rep.Partial && len(rep.UnknownRanks) > 0 {
		fmt.Printf("PARTIAL REPORT: tool nodes hosting ranks %v crashed; their wait state is unknown\n",
			summarizeRanks(rep.UnknownRanks))
	}
	if *transport == "tcp" {
		fmt.Printf("wire: workers=%d reconnects=%d retransmits=%d abandoned=%d codec-errors=%d bytes=%d\n",
			*workers, rep.Reconnects, rep.Retransmits, rep.AbandonedFrames, rep.CodecErrors, rep.BytesOnWire)
		if orch.proxy != nil {
			fmt.Printf("wire-faults: seed=%d proxy-dropped=%d proxy-dupped=%d\n",
				*wireSeed, orch.proxy.Dropped(), orch.proxy.Dupped())
		}
		if rep.WorkerRespawns > 0 {
			fmt.Printf("respawn: %d worker(s) re-admitted exactly — %d journal entries shipped, replayed in %v (backoff %v)\n",
				rep.WorkerRespawns, rep.ShippedJournalEntries,
				rep.ReplayTime.Round(time.Microsecond), rep.RespawnBackoff.Round(time.Millisecond))
		}
	}
	if faultActive {
		fmt.Printf("fault-plane: seed=%d retransmits=%d abandoned=%d dropped-events=%d snapshot-retries=%d\n",
			*faultSeed, rep.Retransmits, rep.AbandonedFrames, rep.DroppedEvents, rep.SnapshotRetries)
		if rep.Recoveries > 0 {
			fmt.Printf("recovery: %d first-layer node(s) rebuilt exactly — %d journal entries replayed in %v (journal high water %d)\n",
				rep.Recoveries, rep.ReplayedMsgs, rep.ReplayTime.Round(time.Microsecond), rep.JournalHighWater)
		}
	}
	if rep.MemBudget > 0 {
		fmt.Printf("governance: budget=%d high-water=%d overflow=%d held-waits=%d\n",
			rep.MemBudget, rep.MemHighWater, rep.OverflowEvents, rep.HeldWaits)
		if rep.Overloaded {
			fmt.Printf("OVERLOADED: the tool plane exhausted its memory budget; %d event(s) were counted as overflow and the report is PARTIAL\n",
				rep.OverflowEvents)
		}
	}
	if len(rep.EngineVerdicts) > 0 {
		names := make([]string, 0, len(rep.EngineVerdicts))
		for n := range rep.EngineVerdicts {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%s", n, rep.EngineVerdicts[n]))
		}
		fmt.Printf("engines: %s\n", strings.Join(parts, " "))
	}
	for _, d := range rep.EngineDeviations {
		fmt.Println("ERROR: engine deviation:", d)
	}
	if rep.DroppedResults > 0 {
		fmt.Printf("WARNING: %d detection result(s) were dropped (driver too slow)\n", rep.DroppedResults)
	}
	for _, m := range rep.CallMismatches {
		fmt.Println("ERROR:", m)
	}
	if rep.LostMessages > 0 && !rep.AppAborted {
		fmt.Printf("WARNING: %d messages were sent but never received\n", rep.LostMessages)
	}
	if rep.Deadlock {
		fmt.Printf("  deadlocked ranks: %v\n", summarizeRanks(rep.Deadlocked))
		if rep.Summary != "" {
			fmt.Printf("  summary: %s\n", rep.Summary)
		}
		if len(rep.Groups) > 1 {
			fmt.Printf("  independent deadlock groups: %d\n", len(rep.Groups))
		}
		fmt.Printf("  cycle: %v\n", rep.Cycle)
		fmt.Printf("  wait-for arcs: %d\n", rep.Arcs)
		if rep.UnexpectedMatches > 0 {
			fmt.Printf("  unexpected matches: %d\n", rep.UnexpectedMatches)
		}
		for _, r := range rep.Deadlocked {
			if len(rep.Conditions) > 0 && len(rep.Deadlocked) <= 16 {
				fmt.Printf("  rank %d: %s\n", r, rep.Conditions[r])
			}
		}
		t := rep.Timings
		if t.Total() > 0 {
			fmt.Printf("  detection: sync=%v gather=%v build=%v check=%v output=%v total=%v\n",
				t.Synchronization, t.WFGGather, t.GraphBuild, t.DeadlockCheck,
				t.OutputGeneration, t.Total())
		}
	}
	writeIf(*htmlPath, rep.HTML)
	writeIf(*dotPath, rep.DOT)
	if *statsJSON != "" {
		st := session.StatsFor(*wl, *procs, *mode, *transport, rep)
		st.Interrupted = interrupted
		// Must stay the last stdout write: with `-stats-json -`, consumers
		// parse the trailing JSON object off the human-readable output.
		writeStats(*statsJSON, st)
	}
	switch {
	case interrupted:
		os.Exit(130)
	case rep.Deadlock:
		os.Exit(1)
	case rep.Verdict == must.VerdictStalled:
		os.Exit(3)
	}
}

func writeStats(path string, st session.RunStats) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats-json:", err)
		return
	}
	b = append(b, '\n')
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "stats-json:", err)
	}
}

func deadRankStr(rep *must.Report) string {
	parts := make([]string, 0, len(rep.DeadRanks))
	for _, r := range rep.DeadRanks {
		if lc, ok := rep.DeadLastCalls[r]; ok {
			parts = append(parts, fmt.Sprintf("%d (after %d calls)", r, lc))
		} else {
			parts = append(parts, strconv.Itoa(r))
		}
	}
	return strings.Join(parts, ", ")
}

func summarizeRanks(rs []int) string {
	if len(rs) <= 16 {
		return fmt.Sprintf("%v", rs)
	}
	return fmt.Sprintf("[%d..%d] (%d ranks)", rs[0], rs[len(rs)-1], len(rs))
}

// writeIf renders a report artifact into path and says what that cost —
// the full graph of a wildcard deadlock is p² lines, rendered only here.
func writeIf(path string, a report.Artifact) {
	if path == "" || a.Empty() {
		return
	}
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		return
	}
	n, err := a.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		return
	}
	fmt.Printf("wrote %s (%d bytes, rendered in %v)\n", path, n, time.Since(start).Round(time.Microsecond))
}
