// Benchmarks regenerating every figure and theorem-level experiment of the
// paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured shapes), plus the engine benchmarks behind the
// repository's timing claims. Each paper benchmark reports the quantity
// whose *shape* the paper predicts as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. `make benchgate` runs the gated subset
// (Thm6CFloodReduction, Thm8LeaderElect, GapTable, GapTableSweep,
// MeasureDynamicDiameter, EngineRingFlood, EngineHugeN) on the parent
// commit and on the working tree, three times each, and cmd/bench fails
// it when a median ns/op or rounds/s regresses past its bound.
package dyndiam_test

import (
	"bytes"
	"os"
	"testing"

	"dyndiam"
)

// --- F1-F3: the construction figures ---

func BenchmarkFigure1TypeGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dyndiam.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Centipede(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dyndiam.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Centipede(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dyndiam.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: Theorem 6 (CFLOOD lower bound via reduction) ---

func BenchmarkThm6CFloodReduction(b *testing.B) {
	var bits, claims int
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.CFloodReduction([]int{25}, 2, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			bits += r.Bits
			if r.ClaimCorrect {
				claims++
			}
			if r.LemmaViolations != 0 {
				b.Fatalf("lemma violations: %d", r.LemmaViolations)
			}
		}
	}
	b.ReportMetric(float64(bits)/float64(b.N), "bits/run")
	b.ReportMetric(float64(claims)/float64(b.N), "correct-claims/4")
}

// --- E2: Theorem 7 (CONSENSUS lower bound via reduction) ---

func BenchmarkThm7ConsensusReduction(b *testing.B) {
	var violations int
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.ConsensusReduction([]int{201}, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Disj == 0 && r.AgreementViolated {
				violations++
			}
			if r.LemmaViolations != 0 {
				b.Fatalf("lemma violations: %d", r.LemmaViolations)
			}
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "agreement-violations/zero-instance")
}

// BenchmarkThm7WithSection7Oracle runs the Theorem 7 reduction with the
// paper's own Section 7 protocol as the oracle, under the construction's
// N' (accuracy exactly 1/3 — violating the Theorem 8 premise). Measured
// outcome (recorded in EXPERIMENTS.md): unlike the cheating fixed-horizon
// oracle, the Section 7 oracle errs on the *safe* side — it never decides
// within the horizon, so it causes no agreement violation but also cannot
// beat the Theorem 7 bound; exactly the correct-but-slow horn of the
// dichotomy. Expensive (minutes): opt in with DYNDIAM_HEAVY=1.
func BenchmarkThm7WithSection7Oracle(b *testing.B) {
	if os.Getenv("DYNDIAM_HEAVY") == "" {
		b.Skip("set DYNDIAM_HEAVY=1 to run the large-q Section 7 oracle reduction")
	}
	var violations, decided int
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.ConsensusReductionOracle([]int{3001}, uint64(i),
			dyndiam.ViaLeaderConsensus{}, map[string]int64{
				"K": 12, "alpha": 2, "beta": 1, "cpermille": 250,
			})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.LemmaViolations != 0 {
				b.Fatalf("lemma violations: %d", r.LemmaViolations)
			}
			if r.Disj == 0 {
				if r.AgreementViolated {
					violations++
				}
				if r.Claim == 1 {
					decided++
				}
			}
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "agreement-violations/zero-instance")
	b.ReportMetric(float64(decided)/float64(b.N), "decided-within-horizon/zero-instance")
}

// --- E3: Theorem 8 (LEADERELECT upper bound) ---

func BenchmarkThm8LeaderElect(b *testing.B) {
	var frTotal float64
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.LeaderSweep([]int{48}, 4, 0.9, 150, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Correct {
			b.Fatal("wrong leader")
		}
		frTotal += rows[0].FloodingRnds
	}
	b.ReportMetric(frTotal/float64(b.N), "flooding-rounds")
}

// --- E4: the headline known-vs-unknown gap ---

func BenchmarkGapTable(b *testing.B) {
	var knownFR, unknownFR float64
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.GapTable([]int{128}, 4, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		knownFR += rows[0].KnownFR
		unknownFR += rows[0].UnknownFR
	}
	b.ReportMetric(knownFR/float64(b.N), "known-D-flooding-rounds")
	b.ReportMetric(unknownFR/float64(b.N), "unknown-D-flooding-rounds")
}

// BenchmarkGapTableSweep runs the gap table over three sizes in one sweep,
// whose cells run side by side on every core. The seed is fixed: a handful
// of (seed, N) cells fail diameter certification by construction (e.g.
// seed 17 at N=96), and a fixed seed keeps the timed work identical
// across iterations.
func BenchmarkGapTableSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (dyndiam.Sweep{}).GapTable([]int{64, 96, 128}, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureDynamicDiameter certifies D the way every sweep cell,
// served gap_table job and perfbench seed does: a bounded-diameter family
// (n/2 extra edges, target diameter 4) streamed for 6·4+60 rounds into the
// causal-closure tracker. The seed is the first that certifies at each n,
// found before the timer starts; every iteration checks that the same
// exact D comes back.
func BenchmarkMeasureDynamicDiameter(b *testing.B) {
	const targetDiam, horizon = 4, 6*4 + 60
	for _, n := range []int{48, 256, 1024} {
		b.Run(benchName("n", int64(n)), func(b *testing.B) {
			measure := func(seed uint64) (int, error) {
				return dyndiam.MeasureDynamicDiameter(dyndiam.BoundedDiameterAdversary(n, targetDiam, n/2, seed), n, horizon)
			}
			seed := uint64(1)
			want, err := measure(seed)
			for err != nil {
				seed++
				want, err = measure(seed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := measure(seed)
				if err != nil {
					b.Fatal(err)
				}
				if d != want {
					b.Fatalf("seed %d: D=%d, want %d", seed, d, want)
				}
			}
			b.ReportMetric(float64(want), "D")
		})
	}
}

// --- E5: estimating N with known D ---

func BenchmarkEstimateN(b *testing.B) {
	var meanErr float64
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.EstimateSweep([]int{64}, []int{64}, 4, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		meanErr += rows[0].MeanErr
	}
	b.ReportMetric(meanErr/float64(b.N), "mean-rel-error")
}

// --- E6: one-sided majority counting ---

func BenchmarkMajorityCount(b *testing.B) {
	var unsound int
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.Sweep{}.MajoritySweep(32, []float64{0.5, 1.0}, 4, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			unsound += r.FalseClaims
		}
	}
	b.ReportMetric(float64(unsound)/float64(b.N), "unsound-claims")
}

// --- E7: Lemma 5 simulation soundness ---

func BenchmarkLemma5Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in := dyndiam.RandomDisjZero(2, 17, 1, uint64(i))
		net, err := dyndiam.NewCFloodNetwork(in)
		if err != nil {
			b.Fatal(err)
		}
		setup := dyndiam.CFloodReductionSetup(net, dyndiam.CFlood{}, uint64(i),
			map[string]int64{dyndiam.ExtraDiameter: 10})
		res, err := dyndiam.RunReduction(setup, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.LemmaViolations) != 0 {
			b.Fatalf("lemma violations: %v", res.LemmaViolations)
		}
	}
}

// --- E8: the Υ subnetwork's node-count uncertainty ---

func BenchmarkUpsilonComposition(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		one, err := dyndiam.NewConsensusNetwork(dyndiam.RandomDisjOne(2, 17, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		zero, err := dyndiam.NewConsensusNetwork(dyndiam.RandomDisjZero(2, 17, 1, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		ratio += float64(zero.N) / float64(one.N)
	}
	b.ReportMetric(ratio/float64(b.N), "N-ratio-zero/one")
}

// --- Structural: composition diameters (the O(1) vs Ω(q) gap) ---

func BenchmarkConstructionDiameters(b *testing.B) {
	var dOne, dZero float64
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.ConstructionDiameters([]int{33}, 2, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Disj == 1 {
				dOne += float64(r.Diameter)
			} else {
				dZero += float64(r.Diameter)
			}
		}
	}
	b.ReportMetric(dOne/float64(b.N), "diameter-DISJ1")
	b.ReportMetric(dZero/float64(b.N), "diameter-DISJ0")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSendProbability compares probabilistic flooding at
// several send probabilities against the deterministic always-send design
// on an oblivious dynamic network.
func BenchmarkAblationSendProbability(b *testing.B) {
	for _, permille := range []int64{250, 500, 750, 1000} {
		b.Run(benchName("p", permille), func(b *testing.B) {
			const n = 64
			var rounds int
			for i := 0; i < b.N; i++ {
				inputs := make([]int64, n)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.PFlood{}, n, inputs, uint64(i), map[string]int64{
					"sendpermille": permille,
					"rounds":       1 << 20,
				})
				eng := &dyndiam.Engine{
					Machines: ms,
					Adv:      dyndiam.RandomConnectedAdversary(n, n, uint64(i)),
					Terminated: func(all []dyndiam.Machine) bool {
						for _, m := range all {
							if !dyndiam.Informed(m) {
								return false
							}
						}
						return true
					},
				}
				res, err := eng.Run(50 * n)
				if err != nil || !res.Done {
					b.Fatalf("flooding did not complete: %v", err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds-to-inform-all")
		})
	}
}

// BenchmarkAblationTwoStageLocking measures lock rollbacks with and without
// the COUNT1 pre-check on a high-diameter line.
func BenchmarkAblationTwoStageLocking(b *testing.B) {
	for _, skip := range []int64{0, 1} {
		b.Run(benchName("skipstage1", skip), func(b *testing.B) {
			const n = 24
			var rollbacks int
			for i := 0; i < b.N; i++ {
				extra := map[string]int64{"skipstage1": skip}
				ms := dyndiam.NewMachines(dyndiam.LeaderElect{}, n, make([]int64, n), uint64(i), extra)
				eng := &dyndiam.Engine{
					Machines: ms,
					Adv:      dyndiam.StaticAdversary(dyndiam.Line(n)),
				}
				res, err := eng.Run(10_000_000)
				if err != nil || !res.Done {
					b.Fatalf("election failed: %v", err)
				}
				rollbacks += failedCandidacies(ms)
			}
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks")
		})
	}
}

// --- Engine: the flood fast path, the message path and observation ---

// BenchmarkEngineRingFlood floods a static ring of 1,024 CFLOOD machines
// four ways. path=fast takes RunFlood's word-packed fast path and path=msg
// the per-message round loop on the identical workload, so their gap is
// the fast path's speedup. The observed variants attach a ring event sink
// and a metrics registry: the gap to their unobserved twin is the observer
// overhead the "zero when off, bounded when on" contract bounds. The
// floodfast-runs counter proves each observed iteration took the path its
// name says, so a silent fallback fails the benchmark.
func BenchmarkEngineRingFlood(b *testing.B) {
	const n = 1024
	g := dyndiam.Ring(n)
	for _, path := range []struct {
		name           string
		fast, observed bool
	}{
		{"fast", true, false},
		{"msg", false, false},
		{"msg-observed", false, true},
		{"fast-observed", true, true},
	} {
		b.Run("path="+path.name, func(b *testing.B) {
			b.ReportAllocs()
			var (
				sink   *dyndiam.ObsRing
				reg    *dyndiam.MetricsRegistry
				rounds int
				events int64
			)
			if path.observed {
				sink = dyndiam.NewObsRing(1 << 16)
				reg = dyndiam.NewMetricsRegistry()
			}
			for i := 0; i < b.N; i++ {
				inputs := make([]int64, n)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: n / 2})
				eng := &dyndiam.Engine{Machines: ms, Adv: dyndiam.StaticAdversary(g)}
				if path.observed {
					sink.Reset()
					eng.Obs, eng.Metrics = sink, reg
				}
				var res *dyndiam.Result
				var err error
				if path.fast {
					res, err = eng.RunFlood(2*n, dyndiam.FloodStopNode(0))
				} else {
					eng.Terminated = dyndiam.NodeDecided(0)
					res, err = eng.Run(2 * n)
				}
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("flood did not confirm")
				}
				rounds += res.Rounds
				if path.observed {
					events += int64(sink.Len()) + int64(sink.Dropped())
				}
			}
			if path.observed {
				want := int64(0)
				if path.fast {
					want = int64(b.N)
				}
				for _, p := range reg.Snapshot() {
					if p.Name == "engine_floodfast_runs_total" && p.Value != want {
						b.Fatalf("fast path ran %d of %d iterations, want %d", p.Value, b.N, want)
					}
				}
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkEngineHugeN floods a 100,000-node delta-encoded churn network on
// the fast path: a persistent random spanning tree plus n/8 slot edges,
// n/64 of which rewire every round as an edge-op script against one
// mutable CSR snapshot. The tree's O(log N) diameter makes D=256 a safe
// known bound, so each run is 256 rounds, timed with machine and adversary
// construction included.
func BenchmarkEngineHugeN(b *testing.B) {
	b.ReportAllocs()
	const n, d = 100_000, 256
	rounds := 0
	for i := 0; i < b.N; i++ {
		inputs := make([]int64, n)
		inputs[0] = 1
		ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, uint64(i),
			map[string]int64{dyndiam.ExtraDiameter: d})
		eng := &dyndiam.Engine{
			Machines: ms,
			Adv:      dyndiam.DeltaChurnAdversary(n, n/8, n/64, uint64(i)),
		}
		res, err := eng.RunFlood(2*d, dyndiam.FloodStopNode(0))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Done {
			b.Fatal("flood did not confirm")
		}
		for _, m := range ms {
			if !dyndiam.Informed(m) {
				b.Fatal("confirmed before everyone was informed")
			}
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func benchName(key string, v int64) string {
	return key + "=" + itoa(v)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// failedCandidacies sums rollbacks across machines via the leader package's
// inspector, re-exported through a tiny helper here to keep the benchmark
// within the public API surface plus one inspection hook.
func failedCandidacies(ms []dyndiam.Machine) int {
	total := 0
	for _, m := range ms {
		total += dyndiam.FailedCandidacies(m)
	}
	return total
}

// --- Supplementary benchmarks ---

// BenchmarkCommAccounting measures the communication table (reduction bits
// vs trivial ceiling vs Theorem 1 floor).
func BenchmarkCommAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := dyndiam.CommTable([]int{2}, []int{33}, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].ReductionBits == 0 {
			b.Fatal("no bits")
		}
	}
}

// BenchmarkDualViewRender renders the dual-graph expression of the
// Theorem 6 composition across a horizon of rounds.
func BenchmarkDualViewRender(b *testing.B) {
	in := dyndiam.RandomDisjZero(2, 17, 1, 3)
	net, err := dyndiam.NewCFloodNetwork(in)
	if err != nil {
		b.Fatal(err)
	}
	actions := make([]dyndiam.Action, net.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dual := net.DualView()
		for r := 1; r <= net.Horizon(); r++ {
			dual.Topology(r, actions)
		}
	}
}

// BenchmarkTraceRoundTrip serializes and reloads a recorded execution.
func BenchmarkTraceRoundTrip(b *testing.B) {
	const n = 64
	inputs := make([]int64, n)
	inputs[0] = 1
	ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, 1,
		map[string]int64{dyndiam.ExtraDiameter: n - 1})
	tr := &dyndiam.Trace{KeepTopologies: true}
	eng := &dyndiam.Engine{Machines: ms, Adv: dyndiam.StaticAdversary(dyndiam.Ring(n)),
		Trace: tr, Terminated: dyndiam.NodeDecided(0)}
	if _, err := eng.Run(2 * n); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := dyndiam.WriteTrace(&buf, tr, n); err != nil {
			b.Fatal(err)
		}
		if _, _, err := dyndiam.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderPhaseBreakdown reports the Section 7 phase counters.
func BenchmarkLeaderPhaseBreakdown(b *testing.B) {
	var phases, rollbacks float64
	for i := 0; i < b.N; i++ {
		pb, err := dyndiam.Sweep{}.LeaderPhases(24, 4, uint64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		phases += float64(pb.WinnerPhases)
		rollbacks += float64(pb.Failures)
	}
	b.ReportMetric(phases/float64(b.N), "winner-phases")
	b.ReportMetric(rollbacks/float64(b.N), "rollbacks")
}
