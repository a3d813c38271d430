// TCP-transport orchestration for mustrun: flag validation, worker-process
// spawning, the wire-level fault proxy, and mid-run process kills.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dwst/internal/fault"
	"dwst/internal/supervise"
	"dwst/must"
)

// wireFlags are the wire-level fault-proxy knobs (tcp transport only).
type wireFlags struct {
	Drop           float64
	Dup            float64
	Delay          time.Duration
	Seed           int64
	PartitionAfter time.Duration
	PartitionFor   time.Duration
}

// active reports whether any proxy-mediated fault is configured (the proxy
// is only interposed when it has work to do).
func (w wireFlags) active() bool {
	return w.Drop > 0 || w.Dup > 0 || w.Delay > 0 || w.PartitionAfter > 0
}

// validateTransportFlags rejects inconsistent transport flags up front.
// tcpOnlySet lists tcp-only flags the user set explicitly (from flag.Visit),
// so `-transport=chan -wire-drop 0.1` fails loudly instead of silently
// ignoring the fault. Option combinations are not re-checked here: mode,
// fault plans and link delay against TCP are must.Options.Validate's, the
// tree geometry (procs vs fan-in, the worker count) is tbon.NewNet's, and
// both reach mustrun as Report.Err (exit 2).
func validateTransportFlags(transport string, workers int, wf wireFlags, killWorker int,
	respawnMax int, respawnBackoff time.Duration, tcpOnlySet []string) error {
	switch transport {
	case "chan":
		if len(tcpOnlySet) > 0 {
			return fmt.Errorf("flag %s requires -transport=tcp", tcpOnlySet[0])
		}
		return nil
	case "tcp":
	default:
		return fmt.Errorf("bad -transport %q: want chan or tcp", transport)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"-wire-drop", wf.Drop}, {"-wire-dup", wf.Dup}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("bad %s %v: want a probability in [0, 1]", p.name, p.v)
		}
	}
	if wf.Delay < 0 {
		return fmt.Errorf("bad -wire-delay %v: want >= 0", wf.Delay)
	}
	if wf.PartitionAfter > 0 && wf.PartitionFor <= 0 {
		return fmt.Errorf("-wire-partition-after needs -wire-partition-for > 0")
	}
	if killWorker >= workers {
		return fmt.Errorf("bad -kill-worker %d: only %d workers", killWorker, workers)
	}
	if respawnMax < 0 {
		return fmt.Errorf("bad -respawn-max %d: want >= 0 (0 = no supervised respawn)", respawnMax)
	}
	if respawnBackoff < 0 {
		return fmt.Errorf("bad -respawn-backoff %v: want >= 0", respawnBackoff)
	}
	return nil
}

// netOrchestrator owns the worker processes and the optional fault proxy
// for one tcp-transport run. With respawnMax > 0 it also supervises the
// fleet: each worker gets a goroutine that reaps its process and — on an
// unexpected death — respawns it under a coordinator-minted recovery token,
// with capped exponential backoff between attempts. When the respawn
// budget is exhausted (or token minting fails: recovery off, journal
// overflowed, slot already degraded) the supervisor stands down and the
// coordinator's degradation budget takes over, producing an honest
// PARTIAL report instead of a wrong one.
type netOrchestrator struct {
	bin        string
	workers    int
	dialTO     time.Duration
	wf         wireFlags
	killWorker int
	killAfter  time.Duration

	respawnMax int
	backoff    supervise.Backoff
	ctl        *must.NetControl

	proxy *fault.WireProxy

	mu           sync.Mutex // guards the fields below
	dialAddr     string
	procs        []*exec.Cmd
	done         bool // run is over: supervisors must not respawn
	respawns     int
	totalBackoff time.Duration

	wg sync.WaitGroup // one supervisor goroutine per worker slot
}

// onListen is the must.NetOptions.OnListen hook: the coordinator has bound
// its port; interpose the fault proxy if configured and start the worker
// processes. Failures are reported on stderr — the run itself surfaces
// them as a ready-timeout (Report.Err).
func (o *netOrchestrator) onListen(addr string) {
	dialAddr := addr
	if o.wf.active() {
		plan := &fault.Plan{Seed: o.wf.Seed}
		if o.wf.Drop > 0 || o.wf.Dup > 0 || o.wf.Delay > 0 {
			plan.Rules = []fault.Rule{{Drop: o.wf.Drop, Dup: o.wf.Dup, JitterMax: o.wf.Delay}}
		}
		proxy, err := fault.NewWireProxy(addr, plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wire proxy:", err)
			return
		}
		o.proxy = proxy
		dialAddr = proxy.Addr()
		if o.wf.PartitionAfter > 0 {
			time.AfterFunc(o.wf.PartitionAfter, func() { proxy.Partition(o.wf.PartitionFor) })
		}
	}
	o.mu.Lock()
	o.dialAddr = dialAddr
	o.mu.Unlock()
	for w := 0; w < o.workers; w++ {
		cmd := o.workerCommand(dialAddr, w, "")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "spawn worker %d: %v\n", w, err)
			continue
		}
		o.mu.Lock()
		o.procs = append(o.procs, cmd)
		o.mu.Unlock()
		if w == o.killWorker {
			proc := cmd.Process
			time.AfterFunc(o.killAfter, func() { proc.Kill() })
		}
		o.wg.Add(1)
		go o.supervise(w, cmd)
	}
}

// supervise reaps one worker slot's process and, while the respawn budget
// lasts, brings a dead worker back: mint a one-shot recovery token (this
// also fences the dead incarnation's stale connection, so a reconnect
// race has exactly one winner), respawn the process with -resume, and go
// back to waiting. Every failure path simply returns — the coordinator's
// degradation budget then splices the slot out honestly.
func (o *netOrchestrator) supervise(w int, cmd *exec.Cmd) {
	defer o.wg.Done()
	for attempt := 1; ; attempt++ {
		cmd.Wait()
		if cmd.ProcessState != nil && cmd.ProcessState.Success() {
			return // clean coordinator-initiated shutdown, not a death
		}
		o.mu.Lock()
		stop := o.done || o.ctl == nil || attempt > o.respawnMax
		addr := o.dialAddr
		o.mu.Unlock()
		if stop {
			return
		}
		delay := o.backoff.Delay(attempt)
		time.Sleep(delay)
		o.mu.Lock()
		o.totalBackoff += delay
		done := o.done
		o.mu.Unlock()
		if done {
			return
		}
		token, err := o.ctl.RecoveryToken(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "respawn worker %d: %v (degrading)\n", w, err)
			return
		}
		next := o.workerCommand(addr, w, token)
		next.Stderr = os.Stderr
		if err := next.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "respawn worker %d: %v\n", w, err)
			return
		}
		o.mu.Lock()
		o.procs = append(o.procs, next)
		o.respawns++
		o.mu.Unlock()
		cmd = next
	}
}

// respawnStats reports how many times the supervisor respawned a worker
// and the total wall clock spent in backoff delays.
func (o *netOrchestrator) respawnStats() (int, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.respawns, o.totalBackoff
}

// workerCommand builds the command for one worker process: the configured
// -mustnode-bin, a mustnode found on PATH or next to this executable, or —
// so a lone mustrun binary still works — mustrun itself in worker mode.
func (o *netOrchestrator) workerCommand(addr string, w int, resume string) *exec.Cmd {
	bin := o.bin
	if bin == "" {
		if p, err := exec.LookPath("mustnode"); err == nil {
			bin = p
		} else if exe, err := os.Executable(); err == nil {
			sibling := filepath.Join(filepath.Dir(exe), "mustnode")
			if _, err := os.Stat(sibling); err == nil {
				bin = sibling
			}
		}
	}
	if bin != "" {
		args := []string{
			"-dial", addr, "-worker", strconv.Itoa(w),
			"-dial-timeout", o.dialTO.String()}
		if resume != "" {
			args = append(args, "-resume", resume)
		}
		return exec.Command(bin, args...)
	}
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	args := []string{
		"-worker-dial", addr, "-worker", strconv.Itoa(w),
		"-dial-timeout", o.dialTO.String()}
	if resume != "" {
		args = append(args, "-worker-resume", resume)
	}
	return exec.Command(self, args...)
}

// cleanup reaps the worker processes (they exit on coordinator shutdown;
// stragglers are killed after a grace period) and closes the proxy. The
// supervisor goroutines own each process's Wait; cleanup just stops them
// from respawning and waits for them to finish reaping.
func (o *netOrchestrator) cleanup() {
	o.mu.Lock()
	o.done = true
	procs := append([]*exec.Cmd(nil), o.procs...)
	o.mu.Unlock()
	timer := time.AfterFunc(5*time.Second, func() {
		for _, cmd := range procs {
			cmd.Process.Kill()
		}
	})
	o.wg.Wait()
	timer.Stop()
	if o.proxy != nil {
		o.proxy.Close()
	}
}

// runWorkerMode is mustrun's hidden worker personality (-worker-dial): the
// fallback used when no mustnode binary is available.
func runWorkerMode(addr string, worker int, dialTO time.Duration, resume string) {
	// A terminal Ctrl-C signals the whole foreground process group, workers
	// included. The coordinator owns the drain: it cancels the run and
	// closes the fabric, which ends RunWorker. So the first signal here is
	// only acknowledged; a second one force-exits a stuck worker.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintf(os.Stderr, "mustrun worker %d: interrupt — draining under coordinator shutdown\n", worker)
		<-sigCh
		os.Exit(130)
	}()
	if err := must.RunWorker(addr, worker, must.WorkerOptions{DialTimeout: dialTO, Resume: resume}); err != nil {
		fmt.Fprintf(os.Stderr, "mustrun worker %d: %v\n", worker, err)
		os.Exit(1)
	}
	os.Exit(0)
}
