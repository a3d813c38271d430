package main

import (
	"fmt"
	"strings"
	"time"

	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// toolTimeout is the event-quiescence period before the root starts a
// detection: mustrun's default. It is a timer, not compute, so
// verdict_wall_ms subtracts it wherever it fired.
const toolTimeout = 50 * time.Millisecond

// toolOptions mirror mustrun's defaults: fan-in 4, 50 ms quiescence,
// the default memory budget, batching on.
func toolOptions() must.Options {
	return must.Options{FanIn: 4, Timeout: toolTimeout, MemBudget: must.DefaultMemBudget}
}

// app is one program of a workload.
type app struct {
	name string
	prog mpi.Program
}

// inproc describes a workload that runs must.Run in this process.
type inproc struct {
	procs int
	apps  []app
	opts  must.Options
	// tcpWorkers > 0 runs the first tool layer in that many in-process
	// must.RunWorker goroutines over loopback TCP (Options.Net).
	tcpWorkers int
	// deadlock is nil when every run must end with verdict none.
	deadlock *deadlockWant
	// centralized also measures must.Centralized on the first app (traced
	// pass only): the single-consumer baseline the paper argues against.
	centralized bool
}

// deadlockWant is the exact report a deadlocking workload must produce.
type deadlockWant struct {
	arcs   int
	groups int
}

// workloadDef is one named workload: why it exists and how to run it.
type workloadDef struct {
	name string
	why  string
	// build returns the in-process description at full or tiny scale; nil
	// for serve_mix, which drives the mustserve binary instead.
	build func(tiny bool) *inproc
	// tracedOnly keeps the workload out of the untraced suite and out of
	// BENCHMARK.json: its end-to-end numbers do not repeat between two sets
	// of runs of one commit, so they are per-layer numbers, held to no bound.
	tracedOnly bool
}

var specMixApps = []string{"104.milc", "115.fds4", "121.pop2", "128.GAPgeofem", "130.socorro"}

func specApps(iters int) []app {
	out := make([]app, 0, len(specMixApps))
	for _, name := range specMixApps {
		a := workload.SpecApps(name)
		if a == nil {
			panic(fmt.Sprintf("bench: unknown SPEC proxy %s", name))
		}
		// Grain 0: no spin loop, so the run measures the tool and not the
		// scheduler.
		out = append(out, app{name: name, prog: a.Build(iters, 0)})
	}
	return out
}

// pick returns full unless tiny is set.
func pick(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

var workloads = []workloadDef{
	{
		name: "stress_ring",
		why:  "Fig. 9 stress test, p=64 on channels: rank intake, p2pmatch, dws exchange and tbon queues do all the work; detection almost none",
		build: func(tiny bool) *inproc {
			return &inproc{
				procs:       pick(tiny, 64, 8),
				apps:        []app{{"stress", workload.Stress(pick(tiny, 1000, 20))}},
				opts:        toolOptions(),
				centralized: true,
			}
		},
	},
	{
		name: "stress_tcp",
		why:  "same program over loopback TCP with 2 workers: the only workload where wire, gob codec, reliable transport and coordinator journal matter",
		build: func(tiny bool) *inproc {
			return &inproc{
				procs:      pick(tiny, 32, 8),
				apps:       []app{{"stress", workload.Stress(pick(tiny, 400, 10))}},
				opts:       toolOptions(),
				tcpWorkers: 2,
			}
		},
		// Two regimes on one commit (about 10k and 5.6k calls/s): the 20 ms
		// retransmission timer feeds back on a loaded loopback fabric.
		tracedOnly: true,
	},
	{
		name: "spec_mix",
		why:  "five SPEC proxies, p=64, grain 0: non-blocking+Waitall, wildcard master/worker, a collective per iteration, alltoall, a 10k-op trace window",
		build: func(tiny bool) *inproc {
			return &inproc{
				procs: pick(tiny, 64, 8),
				apps:  specApps(pick(tiny, 50, 4)),
				opts:  toolOptions(),
			}
		},
	},
	{
		name: "wildcard_storm",
		why:  "Fig. 10 wildcard deadlock, p=1024, 1,047,552 arcs: graph build, check and DOT/HTML output are the detection; matching does nothing",
		build: func(tiny bool) *inproc {
			p := pick(tiny, 1024, 16)
			return &inproc{
				procs:    p,
				apps:     []app{{"wildcard", workload.WildcardDeadlock()}},
				opts:     toolOptions(),
				deadlock: &deadlockWant{arcs: p * (p - 1), groups: 1},
			}
		},
	},
	{
		name: "lammps_pairs",
		why:  "Fig. 11 send-send deadlock, p=4096 rendezvous, p arcs: snapshot sync, gather across the tree and per-rank HTML carry the time, not the graph",
		build: func(tiny bool) *inproc {
			p := pick(tiny, 4096, 16)
			o := toolOptions()
			o.Rendezvous = true
			return &inproc{
				procs:    p,
				apps:     []app{{"126.lammps", workload.SpecApps("126.lammps").Build(3, 0)}},
				opts:     o,
				deadlock: &deadlockWant{arcs: p, groups: p / 2},
			}
		},
	},
	{
		name: "serve_mix",
		why:  "real mustserve binary under nproc closed-loop HTTP clients cycling four small specs: tree build, quiescence timer, final quiesce and JSON dominate",
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// mpiOptions are the reference run's options: the same MPI semantics the
// tool run uses, and for a deadlocking program a hang watchdog with the
// tool's own quiescence period, so "the job without the tool" ends the way
// a user would see it end.
func (d *inproc) mpiOptions() mpi.Options {
	mo := mpi.Options{
		Rendezvous:               d.opts.Rendezvous,
		BufferSlots:              d.opts.BufferSlots,
		BufferedSendCost:         d.opts.BufferedSendCost,
		SsendEvery:               d.opts.SsendEvery,
		SynchronizingCollectives: d.opts.SynchronizingCollectives,
	}
	if d.deadlock != nil {
		mo.HangTimeout = toolTimeout
	} else {
		mo.HangTimeout = 60 * time.Second
	}
	return mo
}
