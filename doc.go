// Package dyndiam is a library-scale reproduction of "The Cost of Unknown
// Diameter in Dynamic Networks" (Yu, Zhao, Jahja; SPAA 2016).
//
// It provides, under one public API:
//
//   - A synchronous dynamic-network simulator faithful to the paper's
//     model: per-round adversarial connected topologies, the send/receive
//     CONGEST discipline with enforced O(log N)-bit messages, public
//     coins, and the causal (dynamic) diameter.
//   - The distributed protocols around the paper's upper bounds: confirmed
//     flooding (CFLOOD) with known and unknown diameter, consensus, MAX,
//     HEAR-FROM-N-NODES, exponential-minima size estimation, one-sided
//     majority counting, and the Section 7 leader-election protocol that
//     replaces knowledge of D with an estimate N' of N.
//   - The paper's lower-bound machinery as executable code: the
//     DISJOINTNESSCP_{n,q} communication problem with its cycle promise,
//     the type-Γ/Λ/Υ subnetworks with their three divergent adversaries
//     and spoiled-node schedules, the composition networks of Theorems 6
//     and 7, and the two-party Alice/Bob simulation harness with exact bit
//     accounting and an empirical Lemma 5 referee.
//   - An experiment harness regenerating every construction figure and
//     theorem-level claim of the paper (see DESIGN.md and EXPERIMENTS.md).
//     Its sweeps are methods on Sweep, which carries their worker count,
//     round budget, metric registry and span sink.
//
// Quick start:
//
//	adv := dyndiam.RandomConnectedAdversary(64, 32, 1)
//	inputs := make([]int64, 64)
//	inputs[0] = 42 // node 0 holds the token
//	ms := dyndiam.NewMachines(dyndiam.CFlood{}, 64, inputs, 7,
//		map[string]int64{dyndiam.ExtraDiameter: 63})
//	eng := &dyndiam.Engine{Machines: ms, Adv: adv, Terminated: dyndiam.NodeDecided(0)}
//	res, err := eng.Run(1000)
//
// The cmd/ binaries (dynsim, gaptable, reduction, leaderelect) and the
// package Examples, whose printed figures go test checks, exercise this API
// end to end.
//
// Executions can be observed without being perturbed: attach an ObsRing
// to Engine.Obs (and LeaderElect.Obs / ReductionSetup.Obs) to capture a
// typed round/phase/lock event stream, and a MetricsRegistry to
// Engine.Metrics for counters and histograms. A nil sink costs nothing —
// the round loop stays allocation-free — and captured streams export as
// JSONL, Prometheus text, or Chrome trace JSON (WriteEventsJSONL,
// WriteMetricsText, WriteChromeTrace; summarized by cmd/obsview). See
// internal/obs and "Observability" in README.md.
//
// Robustness is measured, not assumed: a FaultPlan (NewFaultPlan, from a
// FaultSpec of drop/dup/corrupt rates, crash/rejoin schedules, and edge
// cuts) attaches to Engine.Plan and injects faults as pure functions of
// (seed, round, node, edge), so every faulty execution replays
// bit-identically. A nil plan — and an all-zero spec — costs nothing:
// the clean path is byte-identical with the layer off.
// Sweep.LeaderDegradation and Sweep.CFloodDegradation sweep fault rates
// with Wilson-interval error bars and graceful per-cell failure handling
// (a cell that panics, times out or exhausts its round budget is recorded
// as such); cmd/chaos drives the grid. See internal/faults and
// "Robustness & fault injection" in README.md.
//
// The experiments also run as a service: NewExperimentServer (driven by
// cmd/dynserve) exposes reliability runs, degradation grids, gap
// tables, the reduction, and the figures as asynchronous HTTP/JSON
// jobs. Results are content-addressed — the job key is the hash of the
// kind and canonical normalized params, which the experiments'
// determinism makes sound — so identical submissions singleflight onto
// one execution, a full queue answers 429 instead of
// blocking, and a checkpointed cache survives restarts byte-identically.
// See internal/serve and "Serving experiments" in README.md.
//
// Model invariants that are code discipline rather than runtime checks
// (determinism, CONGEST bit accounting, print hygiene) are enforced
// statically by cmd/dynlint; see "Static analysis & model invariants" in
// README.md.
package dyndiam
