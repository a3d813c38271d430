// Package dwst is a from-scratch Go reproduction of "Distributed Wait
// State Tracking for Runtime MPI Deadlock Detection" (Hilbrich, Protze,
// de Supinski, Baier, Nagel, Müller — SC '13): the MUST runtime deadlock
// detection pipeline with distributed wait-state tracking on a tree-based
// overlay network, together with every substrate it depends on — an MPI
// runtime simulator, the TBON, distributed point-to-point and collective
// matching, the consistent-state snapshot protocol, and AND⊕OR wait-for
// graph detection.
//
// Public API:
//
//   - dwst/mpi — write MPI-style Go programs against the bundled runtime
//   - dwst/must — run programs under the deadlock-detection tool
//
// must.Options and must.Report are aliases: the run's options and its
// report are each declared once, in internal/core (options.go, report.go),
// and that is where every field is documented
// (go doc dwst/internal/core.Options, go doc dwst/internal/core.Report).
//
// cmd/figures regenerates every table and figure of the paper's evaluation
// (go run ./cmd/figures -fig 9|10|11|12|ablation); see DESIGN.md for the
// experiment index and EXPERIMENTS.md for measured-vs-paper results.
package dwst
