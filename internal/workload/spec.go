package workload

import (
	"time"

	"dwst/mpi"
)

// SpecApp is one SPEC MPI2007 proxy: a program with the communication
// signature that drives the tool overhead the paper measures in Figure 12.
type SpecApp struct {
	// Name is the SPEC benchmark identifier.
	Name string
	// Signature summarizes the communication behaviour being proxied.
	Signature string
	// Unsafe marks applications the tool aborts (126.lammps' send–send).
	Unsafe bool
	// HeavyTrace marks applications with very long traces (128.GAPgeofem).
	HeavyTrace bool
	// Build constructs the program for the given iteration count and
	// per-iteration compute grain.
	Build func(iters int, grain time.Duration) mpi.Program
}

// SpecSuite returns proxies for the SPEC MPI2007 applications of Figure 12.
func SpecSuite() []SpecApp {
	return []SpecApp{
		{
			Name:      "104.milc",
			Signature: "4D lattice QCD: non-blocking halo exchange + periodic allreduce",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloNonblocking(iters, grain, 2, 8, 5)
			},
		},
		{
			Name:      "107.leslie3d",
			Signature: "3D flow solver: blocking sendrecv halo, moderate compute",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloSendrecv(iters, 2*grain, 1, 64, 0)
			},
		},
		{
			Name:      "113.GemsFDTD",
			Signature: "FDTD: halo exchange + frequent allreduce",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloSendrecv(iters, grain, 1, 32, 2)
			},
		},
		{
			Name:      "115.fds4",
			Signature: "fire dynamics: master-worker traffic with wildcard receives",
			Build:     masterWorker,
		},
		{
			Name:      "121.pop2",
			Signature: "ocean model: very high communication ratio, tiny messages",
			Build: func(iters int, grain time.Duration) mpi.Program {
				// Little compute, 4 exchanges + allreduce every iteration.
				return haloSendrecv(4*iters, grain/8, 2, 8, 4)
			},
		},
		{
			Name:      "122.tachyon",
			Signature: "ray tracing: embarrassingly parallel, rare communication",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return computeHeavy(iters, 8*grain)
			},
		},
		{
			Name:      "126.lammps",
			Signature: "molecular dynamics with an unsafe (potential) send-send exchange",
			Unsafe:    true,
			Build:     lammps,
		},
		{
			Name:      "127.wrf2",
			Signature: "weather: halo + broadcast/reduce mix",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloWithRootedColls(iters, 2*grain)
			},
		},
		{
			Name:       "128.GAPgeofem",
			Signature:  "FEM: floods of tiny messages, very long traces",
			HeavyTrace: true,
			Build: func(iters int, grain time.Duration) mpi.Program {
				return tinyMessageFlood(8*iters, grain/16)
			},
		},
		{
			Name:      "129.tera_tf",
			Signature: "turbulence: compute heavy with periodic barriers",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return computeWithBarriers(iters, 6*grain)
			},
		},
		{
			Name:      "130.socorro",
			Signature: "DFT: alltoall transposes + gathers",
			Build:     alltoallGather,
		},
		{
			Name:      "132.zeusmp2",
			Signature: "astrophysics: non-blocking 3D halo, waitall completion",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloNonblocking(iters, 3*grain, 3, 16, 0)
			},
		},
		{
			Name:      "137.lu",
			Signature: "LU wavefront pipeline: bursts of buffered sends (backlog sensitive)",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return luPipeline(iters, grain, 12)
			},
		},
		{
			Name:      "142.dmilc",
			Signature: "milc (large): same pattern, bigger messages",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloNonblocking(iters, grain, 2, 256, 5)
			},
		},
		{
			Name:      "143.dleslie",
			Signature: "leslie (large): higher communication ratio",
			Build: func(iters int, grain time.Duration) mpi.Program {
				return haloSendrecv(3*iters, grain/4, 2, 16, 3)
			},
		},
	}
}

// SpecApps returns the proxy with the given name (nil if unknown).
func SpecApps(name string) *SpecApp {
	for _, a := range SpecSuite() {
		if a.Name == name {
			app := a
			return &app
		}
	}
	return nil
}

// --- communication-signature building blocks ---

// haloSendrecv: width-neighborhood ring halo via Sendrecv, msg bytes per
// transfer, an Allreduce every allredEvery iterations (0 = never).
func haloSendrecv(iters int, grain time.Duration, width, msg, allredEvery int) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, msg)
		for i := 0; i < iters; i++ {
			for w := 1; w <= width; w++ {
				right := (p.Rank() + w) % n
				left := (p.Rank() + n - w) % n
				p.Sendrecv(buf, right, w, left, w, mpi.CommWorld)
			}
			if grain > 0 {
				p.Compute(grain)
			}
			if allredEvery > 0 && (i+1)%allredEvery == 0 {
				p.Allreduce(mpi.Int64(int64(i)), mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// haloNonblocking: Isend/Irecv to ±width neighbors completed by Waitall,
// with a periodic Allreduce.
func haloNonblocking(iters int, grain time.Duration, width, msg, allredEvery int) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, msg)
		for i := 0; i < iters; i++ {
			var reqs []*mpi.Request
			for w := 1; w <= width; w++ {
				right := (p.Rank() + w) % n
				left := (p.Rank() + n - w) % n
				reqs = append(reqs, p.Irecv(left, w, mpi.CommWorld))
				reqs = append(reqs, p.Isend(buf, right, w, mpi.CommWorld))
			}
			if grain > 0 {
				p.Compute(grain)
			}
			p.Waitall(reqs...)
			if allredEvery > 0 && (i+1)%allredEvery == 0 {
				p.Allreduce(mpi.Int64(int64(i)), mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// masterWorker: rank 0 hands out work and collects results through wildcard
// receives; workers compute.
func masterWorker(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		if n < 2 {
			p.Finalize()
			return
		}
		if p.Rank() == 0 {
			for i := 0; i < iters; i++ {
				for w := 1; w < n; w++ {
					p.Send(mpi.Int64(int64(i)), w, 1, mpi.CommWorld)
				}
				for w := 1; w < n; w++ {
					p.Recv(mpi.AnySource, 2, mpi.CommWorld)
				}
			}
		} else {
			for i := 0; i < iters; i++ {
				p.Recv(0, 1, mpi.CommWorld)
				if grain > 0 {
					p.Compute(grain)
				}
				p.Send(mpi.Int64(int64(p.Rank())), 0, 2, mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// computeHeavy: almost no communication — a barrier every 10 iterations.
func computeHeavy(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		for i := 0; i < iters; i++ {
			p.Compute(grain)
			if (i+1)%10 == 0 {
				p.Barrier(mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// computeWithBarriers: compute with a barrier every iteration.
func computeWithBarriers(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		for i := 0; i < iters; i++ {
			p.Compute(grain)
			p.Barrier(mpi.CommWorld)
		}
		p.Finalize()
	}
}

// lammps: neighbor exchange where both partners first Send, then Recv —
// the unsafe pattern that only works because standard sends buffer
// (126.lammps' potential send-send deadlock, Sec. 6).
func lammps(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		peer := p.Rank() ^ 1
		buf := make([]byte, 32)
		for i := 0; i < iters; i++ {
			if peer < n {
				p.Send(buf, peer, 0, mpi.CommWorld)
				p.Recv(peer, 0, mpi.CommWorld)
			}
			if grain > 0 {
				p.Compute(grain)
			}
			if (i+1)%10 == 0 {
				p.Barrier(mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// alltoallGather: the 130.socorro signature — alltoall transposes with
// periodic gathers to rank 0.
func alltoallGather(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, 8*n)
		for i := 0; i < iters; i++ {
			p.Alltoall(buf, mpi.CommWorld)
			if grain > 0 {
				p.Compute(grain)
			}
			if (i+1)%4 == 0 {
				p.Gather(mpi.Int64(int64(p.Rank())), 0, mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// haloWithRootedColls: sendrecv halo plus Bcast/Reduce pairs.
func haloWithRootedColls(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, 48)
		for i := 0; i < iters; i++ {
			right := (p.Rank() + 1) % n
			left := (p.Rank() + n - 1) % n
			p.Sendrecv(buf, right, 0, left, 0, mpi.CommWorld)
			if grain > 0 {
				p.Compute(grain)
			}
			if (i+1)%3 == 0 {
				p.Bcast(mpi.Int64(int64(i)), 0, mpi.CommWorld)
			}
			if (i+1)%5 == 0 {
				p.Reduce(mpi.Int64(1), 0, mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// tinyMessageFlood: the 128.GAPgeofem signature — very many tiny messages
// with little compute, stressing the tool's trace window.
func tinyMessageFlood(iters int, grain time.Duration) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		one := []byte{1}
		for i := 0; i < iters; i++ {
			// Non-blocking sends keep the burst safe under the strict
			// blocking model (a blocking send ring would be flagged as a
			// potential send-send deadlock — correctly, but that is
			// 126.lammps' role, not this proxy's).
			var reqs []*mpi.Request
			for b := 0; b < 4; b++ {
				reqs = append(reqs, p.Isend(one, right, b, mpi.CommWorld))
			}
			for b := 0; b < 4; b++ {
				p.Recv(left, b, mpi.CommWorld)
			}
			p.Waitall(reqs...)
			if grain > 0 {
				p.Compute(grain)
			}
		}
		p.Barrier(mpi.CommWorld)
		p.Finalize()
	}
}

// luPipeline: the 137.lu signature — each rank fires a burst of small
// standard sends down the pipeline before receiving, building a backlog of
// outstanding buffered sends (run with Options.BufferedSendCost to model
// the MPI-internal handling cost, and SsendEvery=50 to reproduce the
// paper's throttling wrapper).
func luPipeline(iters int, grain time.Duration, burst int) mpi.Program {
	return func(p *mpi.Proc) {
		n := p.Size()
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			if p.Rank() < n-1 {
				for b := 0; b < burst; b++ {
					p.Send(buf, p.Rank()+1, b, mpi.CommWorld)
				}
			}
			if grain > 0 {
				p.Compute(grain)
			}
			if p.Rank() > 0 {
				for b := 0; b < burst; b++ {
					p.Recv(p.Rank()-1, b, mpi.CommWorld)
				}
			}
		}
		p.Barrier(mpi.CommWorld)
		p.Finalize()
	}
}
