package fault_test

// Chaos over TCP: the same verdict-preservation properties as the channel
// chaos suite, but with the tool split across a real coordinator and worker
// fabrics on loopback sockets, and with the adversary operating at the wire
// level — a frame-parsing proxy dropping, duplicating and delaying real
// bytes, plus full partitions and abrupt worker kills. Workers run
// in-process (goroutines around must.RunWorker) so seed sweeps stay cheap;
// the separate-OS-process path is covered by the cmd smoke tests.

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwst/internal/fault"
	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// tcpHarness configures one TCP-transport run with in-process workers.
type tcpHarness struct {
	workers int
	budget  time.Duration

	// wirePlan, when non-nil, interposes a WireProxy between the workers
	// and the coordinator.
	wirePlan                     *fault.Plan
	partitionAfter, partitionFor time.Duration

	// haltWorker (-1 = none) abruptly kills that worker after haltAfter —
	// the in-process analogue of `kill -9` on a mustnode. haltWorkers
	// kills several (worker → delay); the two compose.
	haltWorker  int
	haltAfter   time.Duration
	haltWorkers map[int]time.Duration

	// respawnMax, when > 0, turns on the in-process supervisor — the test
	// mirror of mustrun's process supervisor: a worker run that exits with
	// an error is re-admitted under a coordinator-minted recovery token,
	// up to respawnMax times per slot. recoverOn forces coordinator
	// journaling even with respawnMax 0; journalCap bounds it (0 =
	// default). killEvery re-kills every respawned incarnation after that
	// delay — the respawn-storm knob.
	respawnMax int
	recoverOn  bool
	journalCap int
	killEvery  time.Duration

	// onListen, when set, also receives the address workers dial.
	onListen func(dial string)

	ctl *must.NetControl

	mu         sync.Mutex
	proxy      *fault.WireProxy
	respawns   int
	workerErrs []error
}

// runSlot is one worker slot's supervised life: run, and while the respawn
// budget lasts, re-admit a dead incarnation under a fresh recovery token.
// A mint failure (journal overflowed, slot degraded) ends supervision and
// leaves the slot to the coordinator's degradation budget.
func (h *tcpHarness) runSlot(dial string, w int, halt <-chan struct{}) error {
	err := must.RunWorker(dial, w, must.WorkerOptions{Halt: halt})
	for attempt := 1; err != nil && attempt <= h.respawnMax; attempt++ {
		token, terr := h.mintToken(w)
		if terr != nil {
			return err
		}
		var again <-chan struct{}
		if h.killEvery > 0 {
			hc := make(chan struct{})
			time.AfterFunc(h.killEvery, func() { close(hc) })
			again = hc
		}
		h.mu.Lock()
		h.respawns++
		h.mu.Unlock()
		err = must.RunWorker(dial, w, must.WorkerOptions{Halt: again, Resume: token})
	}
	return err
}

// mintToken retries while the coordinator still sees the dead incarnation's
// connection as up (its teardown races the supervisor); any other error is
// final.
func (h *tcpHarness) mintToken(w int) (string, error) {
	var err error
	for i := 0; i < 500; i++ {
		var tok string
		tok, err = h.ctl.RecoveryToken(w)
		if err == nil {
			return tok, nil
		}
		if !strings.Contains(err.Error(), "still connected") {
			return "", err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", err
}

// run executes prog over the TCP fabric under a hang watchdog and reaps
// the worker goroutines (and proxy) before returning.
func (h *tcpHarness) run(t *testing.T, procs int, prog mpi.Program, opts must.Options) *must.Report {
	t.Helper()
	if h.workers == 0 {
		h.workers = 2
	}
	h.workerErrs = make([]error, h.workers)
	var wg sync.WaitGroup
	opts.Net = &must.NetOptions{
		Workers:    h.workers,
		Budget:     h.budget,
		Recover:    h.recoverOn || h.respawnMax > 0,
		JournalCap: h.journalCap,
		OnListen: func(addr string) {
			dial := addr
			if h.wirePlan != nil {
				p, err := fault.NewWireProxy(addr, h.wirePlan)
				if err != nil {
					t.Errorf("wire proxy: %v", err)
					return
				}
				h.mu.Lock()
				h.proxy = p
				h.mu.Unlock()
				dial = p.Addr()
				if h.partitionAfter > 0 {
					time.AfterFunc(h.partitionAfter, func() { p.Partition(h.partitionFor) })
				}
			}
			for w := 0; w < h.workers; w++ {
				w := w
				var halt <-chan struct{}
				after, killed := h.haltWorkers[w]
				if w == h.haltWorker {
					after, killed = h.haltAfter, true
				}
				if killed {
					hc := make(chan struct{})
					time.AfterFunc(after, func() { close(hc) })
					halt = hc
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.workerErrs[w] = h.runSlot(dial, w, halt)
				}()
			}
			if h.onListen != nil {
				h.onListen(dial)
			}
		},
	}
	if opts.Net.Recover {
		h.ctl = &must.NetControl{}
		opts.Net.Control = h.ctl
	}
	done := make(chan *must.Report, 1)
	go func() { done <- must.Run(procs, prog, opts) }()
	var rep *must.Report
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("TCP tool run hung")
	}
	wg.Wait()
	h.mu.Lock()
	if h.proxy != nil {
		h.proxy.Close()
	}
	h.mu.Unlock()
	if rep.Err != nil {
		t.Fatalf("TCP run failed to assemble: %v", rep.Err)
	}
	return rep
}

// TestWireTCPWatchdogFlagsStalledRank is the progress watchdog over TCP: a
// rank computing past the quiet period while every other rank waits for it
// in a barrier is stalled, not deadlocked, although its hosting leaf lives
// in a worker process.
func TestWireTCPWatchdogFlagsStalledRank(t *testing.T) {
	h := &tcpHarness{workers: 2, haltWorker: -1}
	rep := h.run(t, 8, func(p *mpi.Proc) {
		if p.Rank() == 5 {
			p.Compute(2 * time.Second)
		}
		p.Barrier(mpi.CommWorld)
		p.Finalize()
	}, must.Options{
		FanIn:         2,
		Timeout:       20 * time.Millisecond,
		WatchdogQuiet: 100 * time.Millisecond,
	})
	if rep.Verdict != must.VerdictStalled || !reflect.DeepEqual(rep.StalledRanks, []int{5}) {
		t.Fatalf("verdict %v stalled %v, want stalled [5]", rep.Verdict, rep.StalledRanks)
	}
	if rep.Deadlock {
		t.Fatalf("stall misclassified as deadlock (ranks %v)", rep.Deadlocked)
	}
}

// TestWireTCPMatchesChanVerdicts is the transport-equivalence baseline:
// on a fault-free loopback fabric, every chaos workload must produce the
// exact verdict of its in-process channel-transport reference run.
func TestWireTCPMatchesChanVerdicts(t *testing.T) {
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opts := must.Options{FanIn: c.fanIn, Timeout: 20 * time.Millisecond}
			refRep := runBounded(t, c.procs, c.prog, opts)
			ref := verdictOf(refRep)
			if !ref.Deadlock {
				t.Fatal("reference run found no deadlock")
			}
			h := &tcpHarness{haltWorker: -1}
			rep := h.run(t, c.procs, c.prog, opts)
			if rep.Partial {
				t.Fatalf("fault-free TCP run degraded (unknown ranks %v)", rep.UnknownRanks)
			}
			if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
				t.Fatalf("TCP verdict diverged from chan:\n got %+v\nwant %+v", got, ref)
			}
			for w, err := range h.workerErrs {
				if err != nil {
					t.Fatalf("worker %d exited with error: %v", w, err)
				}
			}
			if rep.BytesOnWire == 0 {
				t.Fatal("BytesOnWire = 0 on a TCP run")
			}
			if refRep.ToolMessages.Total() > 0 && rep.ToolMessages.Total() == 0 {
				// Workloads whose traffic stays within single leaves
				// legitimately report zero; only a drop relative to the
				// channel reference means worker finals were not merged.
				t.Fatal("ToolMessages = 0: worker final reports were not merged")
			}
		})
	}
}

// TestWireTCPChaosFaultsPreserveVerdict is the headline wire-chaos
// property: with the proxy dropping, duplicating and delaying real frames
// on every connection, the reliable layer must still deliver the exact
// fault-free verdict — never a partial report, never a hang.
func TestWireTCPChaosFaultsPreserveVerdict(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(10)
	if testing.Short() {
		hi = 2
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := must.Options{FanIn: c.fanIn, Timeout: 20 * time.Millisecond}
			ref := verdictOf(runBounded(t, c.procs, c.prog, opts))
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				h := &tcpHarness{
					haltWorker: -1,
					wirePlan: &fault.Plan{
						Seed: seed,
						Rules: []fault.Rule{{
							Drop:      0.02,
							Dup:       0.02,
							JitterMax: 500 * time.Microsecond,
						}},
					},
				}
				rep := h.run(t, c.procs, c.prog, opts)
				if rep.Partial {
					t.Fatalf("wire faults alone must never degrade the report (unknown ranks %v)", rep.UnknownRanks)
				}
				if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
					t.Fatalf("verdict diverged under wire faults:\n got %+v\nwant %+v", got, ref)
				}
			})
		})
	}
}

// TestWireTCPPartitionReconnects severs every worker connection for a
// while (well inside the degradation budget): the fabric must reconnect
// under the same incarnation, retransmit what the partition ate, and
// produce the exact verdict with no degradation. The quiescence Timeout
// outlasts the partition's start, so the detection cannot end the run
// before the partition begins.
func TestWireTCPPartitionReconnects(t *testing.T) {
	opts := must.Options{FanIn: 2, Timeout: 100 * time.Millisecond}
	ref := verdictOf(runBounded(t, 8, workload.RecvRecvDeadlock(), opts))
	h := &tcpHarness{
		haltWorker:     -1,
		budget:         5 * time.Second,
		wirePlan:       &fault.Plan{Seed: 1},
		partitionAfter: 30 * time.Millisecond,
		partitionFor:   150 * time.Millisecond,
	}
	rep := h.run(t, 8, workload.RecvRecvDeadlock(), opts)
	if rep.Reconnects == 0 {
		t.Fatal("partition healed without any recorded reconnect")
	}
	if rep.Partial {
		t.Fatalf("partition inside the budget must not degrade the report (unknown %v)", rep.UnknownRanks)
	}
	if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
		t.Fatalf("verdict diverged after partition:\n got %+v\nwant %+v", got, ref)
	}
}

// TestWireTCPWorkerKillDegradesHonestly kills one worker process mid-run
// and never lets it return: past the budget the coordinator must splice
// out the worker's leaves and report their ranks unknown — the TCP
// analogue of the first-layer-crash degradation contract. The quiescence
// Timeout outlasts the kill, so the detection cannot finish first.
func TestWireTCPWorkerKillDegradesHonestly(t *testing.T) {
	h := &tcpHarness{
		budget:     250 * time.Millisecond,
		haltWorker: 1,
		haltAfter:  30 * time.Millisecond,
	}
	rep := h.run(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:   4, // width0 = 2: worker 1 owns leaf 1 = ranks [4, 8)
		Timeout: 100 * time.Millisecond,
	})
	if !rep.Partial {
		t.Fatal("killed worker past budget must flag the report partial")
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(rep.UnknownRanks, want) {
		t.Fatalf("unknown ranks %v, want %v", rep.UnknownRanks, want)
	}
	if !rep.Deadlock {
		t.Fatal("the surviving ranks' deadlock must still be reported")
	}
	if h.workerErrs[1] == nil {
		t.Fatal("halted worker must exit with an error")
	}
}

// TestWireTCPFencedClaimantCannotHoldDeadSlot: a process that keeps dialing
// a dead worker's slot as a fresh claimant is fenced on every hello, and
// those rejected hellos must not count as the slot's progress. Worker 1 is
// halted as in TestWireTCPWorkerKillDegradesHonestly while a claimant
// redials slot 1 every budget/4 for eight budgets: the run must splice the
// slot out and return its honest partial report while the claimant is
// still dialing, not once it gives up.
func TestWireTCPFencedClaimantCannotHoldDeadSlot(t *testing.T) {
	const budget = 250 * time.Millisecond
	claimantDone := make(chan struct{})
	var admitted atomic.Bool
	h := &tcpHarness{
		budget:     budget,
		haltWorker: 1,
		haltAfter:  30 * time.Millisecond,
		onListen: func(dial string) {
			go func() {
				defer close(claimantDone)
				// Let worker 1 claim its slot first: a claimant that won the
				// first hello would simply be worker 1.
				time.Sleep(100 * time.Millisecond)
				for end := time.Now().Add(8 * budget); time.Now().Before(end); time.Sleep(budget / 4) {
					if must.RunWorker(dial, 1, must.WorkerOptions{DialTimeout: budget / 4}) == nil {
						admitted.Store(true)
					}
				}
			}()
		},
	}
	rep := h.run(t, 8, workload.RecvRecvDeadlock(), must.Options{
		FanIn:   4,                      // width0 = 2: worker 1 owns leaf 1 = ranks [4, 8)
		Timeout: 100 * time.Millisecond, // outlasts the kill, as above
	})
	outlasted := false
	select {
	case <-claimantDone:
		outlasted = true
	default:
	}
	<-claimantDone
	if outlasted {
		t.Fatal("the run ended only after the claimant stopped dialing: its fenced hellos held off the dead slot's splice-out")
	}
	if admitted.Load() {
		t.Fatal("a fresh claimant was admitted to an assigned slot")
	}
	if !rep.Partial {
		t.Fatal("dead worker past budget must flag the report partial")
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(rep.UnknownRanks, want) {
		t.Fatalf("unknown ranks %v, want %v", rep.UnknownRanks, want)
	}
	if !rep.Deadlock {
		t.Fatal("the surviving ranks' deadlock must still be reported")
	}
}

// TestWireTCPFencingRejectsDuplicateWorker races a second claimant for
// worker slot 0 against the legitimate one: exactly one wins the slot;
// the loser must be rejected permanently with a fencing error, and the
// run must complete with the correct verdict either way.
func TestWireTCPFencingRejectsDuplicateWorker(t *testing.T) {
	opts := must.Options{FanIn: 2, Timeout: 20 * time.Millisecond}
	ref := verdictOf(runBounded(t, 8, workload.RecvRecvDeadlock(), opts))

	var wg sync.WaitGroup
	errs := make([]error, 3) // workers 0, 1, and the duplicate of 0
	opts.Net = &must.NetOptions{
		Workers: 2,
		OnListen: func(addr string) {
			for i, w := range []int{0, 1, 0} {
				i, w := i, w
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = must.RunWorker(addr, w, must.WorkerOptions{})
				}()
			}
		},
	}
	done := make(chan *must.Report, 1)
	go func() { done <- must.Run(8, workload.RecvRecvDeadlock(), opts) }()
	var rep *must.Report
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("TCP run hung with a duplicate worker dialing")
	}
	wg.Wait()
	if rep.Err != nil {
		t.Fatalf("run failed: %v", rep.Err)
	}
	rejected := 0
	for _, i := range []int{0, 2} {
		if err := errs[i]; err != nil {
			rejected++
			if !strings.Contains(err.Error(), "fenced") {
				t.Fatalf("loser's error %q does not mention fencing", err)
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("%d of the two slot-0 claimants were rejected, want exactly 1 (errs: %v)", rejected, errs)
	}
	if errs[1] != nil {
		t.Fatalf("worker 1 exited with error: %v", errs[1])
	}
	if got := verdictOf(rep); !reflect.DeepEqual(got, ref) {
		t.Fatalf("verdict diverged with duplicate claimant:\n got %+v\nwant %+v", got, ref)
	}
}
