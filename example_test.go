package dyndiam_test

import (
	"fmt"
	"log"

	"dyndiam"
)

// Confirmed flooding: node 0 must push a token (say, a firmware update) to
// every node of a changing network and confirm completion. Here 64 sensors
// form a different connected mesh every round, with static diameter at
// most 6, and 12 is a safe bound on the dynamic diameter.
//
// With a known bound D on the dynamic diameter the confirmation is
// deterministic and takes exactly D rounds. Without one, the only safe
// bound is N-1: the unknown-diameter run pays ~N rounds instead of ~D, the
// poly(N) cost the paper proves unavoidable (Theorem 6).
func ExampleCFlood() {
	const (
		n    = 64
		seed = 2026
	)
	run := func(label string, extra map[string]int64) {
		inputs := make([]int64, n)
		inputs[0] = 42 // the token node 0 must disseminate
		ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, seed, extra)
		eng := &dyndiam.Engine{
			Machines:          ms,
			Adv:               dyndiam.BoundedDiameterAdversary(n, 6, n/2, seed),
			CheckConnectivity: true,
			Terminated:        dyndiam.NodeDecided(0), // CFLOOD ends when the source confirms
		}
		res, err := eng.Run(4 * n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s confirmed at round %2d  informed %d/%d  messages %d  bits %d\n",
			label, res.Rounds, informed(ms), n, res.Messages, res.Bits)
	}
	run("known diameter (D=12):", map[string]int64{dyndiam.ExtraDiameter: 12})
	run("unknown diameter:", nil)
	// Output:
	// known diameter (D=12): confirmed at round 12  informed 64/64  messages 563  bits 5630
	// unknown diameter:      confirmed at round 63  informed 64/64  messages 3827  bits 38270
}

// informed counts the flood machines that hold the token.
func informed(ms []dyndiam.Machine) int {
	c := 0
	for _, m := range ms {
		if dyndiam.Informed(m) {
			c++
		}
	}
	return c
}

// The dynamic diameter is causal, not per-round geometric: a rotating star
// has static diameter 2 every round but dynamic diameter N-1.
func ExampleDynamicDiameter() {
	const n = 8
	adv := dyndiam.RotatingStarAdversary(n)
	graphs := make([]*dyndiam.Graph, 40)
	for r := 1; r <= len(graphs); r++ {
		// Adversaries reuse the returned graph; clone to keep the trace.
		graphs[r-1] = adv.Topology(r, make([]dyndiam.Action, n)).Clone()
	}
	d, exact := dyndiam.DynamicDiameter(graphs)
	fmt.Printf("static diameter each round: %d, dynamic diameter: %d (exact: %v)\n",
		graphs[0].StaticDiameter(), d, exact)
	// Output: static diameter each round: 2, dynamic diameter: 7 (exact: true)
}

// DISJOINTNESSCP instances obey the cycle promise; the Figure 1 example
// evaluates to 0 because index 4 holds (0, 0).
func ExampleDisjFromStrings() {
	in, err := dyndiam.DisjFromStrings("3110", "2200", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d q=%d answer=%d\n", in.N, in.Q, in.Eval())
	// Output: n=4 q=5 answer=0
}

// The Theorem 6 composition has 3nq+4 nodes regardless of the answer, a
// diameter gap decided by the answer, and two or three bridging edges.
func ExampleNewCFloodNetwork() {
	in := dyndiam.RandomDisjZero(2, 9, 1, 3)
	net, err := dyndiam.NewCFloodNetwork(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("N=%d horizon=%d bridges=%d\n", net.N, net.Horizon(), len(net.Bridges()))
	// Output: N=58 horizon=4 bridges=3
}

// Alice and Bob solve a DISJOINTNESSCP instance by jointly simulating a
// CFLOOD protocol: the paper's Theorem 6 argument, executed. Alice holds
// x, Bob holds y. The type-Γ + type-Λ composition network for (x, y) has
// diameter O(1) if DISJOINTNESSCP(x, y) = 1 and Ω(q) if the answer is 0.
// Each party simulates only its non-spoiled nodes under its own divergent
// adversary, forwarding just the special nodes' messages, and the run
// reports the exact bits they exchanged. Alice claims 1 iff the CFLOOD
// source confirmed within the horizon (q-1)/2 rounds.
//
// The oracle is a CFLOOD protocol that believes the diameter is 10:
// right on 1-instances, fatally wrong on 0-instances. On the q=33
// 0-instance it confirms while the Γ-line is still uninformed, so Alice
// errs. Any CFLOOD protocol fast enough to beat the horizon must err
// there, which is how the Ω((N/log N)^1/4) lower bound follows from the
// DISJOINTNESSCP communication bound.
//
// The referee re-executes the true network and verifies Lemma 5: every
// non-spoiled node behaved identically in the party simulations and the
// reference execution.
func ExampleRunReduction() {
	solve := func(label string, in dyndiam.DisjInstance) {
		net, err := dyndiam.NewCFloodNetwork(in)
		if err != nil {
			log.Fatal(err)
		}
		setup := dyndiam.CFloodReductionSetup(net, dyndiam.CFlood{}, 5,
			map[string]int64{dyndiam.ExtraDiameter: 10})
		res, err := dyndiam.RunReduction(setup, true)
		if err != nil {
			log.Fatal(err)
		}
		claim := 0
		if res.Claim {
			claim = 1
		}
		fmt.Printf("%s x=%v y=%v: N=%d horizon=%d claim=%d truth=%d bits A->B=%d B->A=%d lemma-violations=%d\n",
			label, in.X, in.Y, net.N, res.Rounds, claim, in.Eval(),
			res.BitsAliceToBob, res.BitsBobToAlice, len(res.LemmaViolations))
	}
	fig1, err := dyndiam.DisjFromStrings("3110", "2200", 5)
	if err != nil {
		log.Fatal(err)
	}
	solve("Figure 1", fig1)
	solve("1-instance", dyndiam.RandomDisjOne(2, 33, 1))
	solve("0-instance", dyndiam.RandomDisjZero(2, 33, 1, 2))
	// Output:
	// Figure 1 x=[3 1 1 0] y=[2 2 0 0]: N=64 horizon=2 claim=0 truth=0 bits A->B=15 B->A=0 lemma-violations=0
	// 1-instance x=[30 1] y=[31 0]: N=202 horizon=16 claim=1 truth=1 bits A->B=155 B->A=115 lemma-violations=0
	// 0-instance x=[30 0] y=[31 0]: N=202 horizon=16 claim=1 truth=0 bits A->B=155 B->A=115 lemma-violations=0
}

// Leader election with unknown diameter, the paper's Section 7 protocol:
// only an estimate N' of the network size is needed (Theorem 8). A
// 40-node cluster elects the highest id as coordinator while holding
// N' = 0.85N and no diameter knowledge. The doubling-D' phase structure
// stops after a handful of phases on an interconnect rewired every round
// into a low-diameter network, far below the pessimistic N-round budget,
// and runs longer on a static line, whose diameter is N-1.
//
// The last run is the two-stage-locking ablation the paper motivates:
// skipping the pre-lock majority check (COUNT1) lets candidates grab
// locks they must later roll back. Every run elects the maximum id; only
// the ablation rolls back candidacies, and it pays for them in rounds.
func ExampleLeaderElect() {
	const (
		n    = 40
		seed = 99
	)
	elect := func(label string, adv dyndiam.Adversary, skipCount1 bool) {
		extra := map[string]int64{
			dyndiam.ExtraNPrime:    85 * n / 100,
			dyndiam.ExtraCPermille: 100,
		}
		if skipCount1 {
			extra[dyndiam.ExtraSkipCount1] = 1
		}
		ms := dyndiam.NewMachines(dyndiam.LeaderElect{}, n, make([]int64, n), seed, extra)
		eng := &dyndiam.Engine{Machines: ms, Adv: adv}
		res, err := eng.Run(10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Done {
			log.Fatalf("%s: no leader elected", label)
		}
		rollbacks := 0
		for _, m := range ms {
			rollbacks += dyndiam.FailedCandidacies(m)
		}
		fmt.Printf("%-36s leader %d  rounds %5d  rollbacks %d  unanimous %v\n",
			label, res.Outputs[0], res.Rounds, rollbacks, allSame(res.Outputs))
	}
	elect("two-stage locking, rewired mesh:", dyndiam.BoundedDiameterAdversary(n, 5, n/2, seed), false)
	elect("two-stage locking, static line:", dyndiam.StaticAdversary(dyndiam.Line(n)), false)
	elect("ablation (no COUNT1), static line:", dyndiam.StaticAdversary(dyndiam.Line(n)), true)
	// Output:
	// two-stage locking, rewired mesh:     leader 39  rounds  1078  rollbacks 0  unanimous true
	// two-stage locking, static line:      leader 39  rounds 25773  rollbacks 0  unanimous true
	// ablation (no COUNT1), static line:   leader 39  rounds 85955  rollbacks 8  unanimous true
}

func allSame(xs []int64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// The spoiled-region table shows the shrinking-but-sufficient simulable
// region behind Lemma 5.
func ExampleSpoiledGrowth() {
	rows, err := dyndiam.SpoiledGrowth(2, 9, 3)
	if err != nil {
		log.Fatal(err)
	}
	last := rows[len(rows)-1]
	fmt.Printf("rounds=%d specials-simulatable=%v\n",
		last.Round, last.SpecialsSimulatableAlice && last.SpecialsSimulatableBob)
	// Output: rounds=4 specials-simulatable=true
}

// Globally sensitive functions over a dynamic network with a known
// diameter bound: the problems the paper lists alongside CFLOOD as
// solvable in O(log N) flooding rounds when D is known (Section 1). A
// 36-node sensor mesh, rewired every round, computes the MAX of its
// readings (gossip of the running maximum), the network size N
// (exponential-minima counting sketches) and the SUM of its readings (the
// weighted Mosk-Aoyama–Shah aggregate).
//
// MAX is exact; COUNT and SUM are sketch estimates whose error decays as
// 1/sqrt(k) in the number of sketch copies, here k = 96. Obtaining such an
// N-estimate under unknown diameter is itself subject to the paper's lower
// bound (see cmd/reduction).
func Example_aggregation() {
	const (
		n    = 36
		seed = 12
		d    = 10 // safe dynamic-diameter bound for the mesh below
	)
	readings := make([]int64, n)
	var trueMax, trueSum int64
	for v := range readings {
		readings[v] = int64((v*v + 17) % 50)
		trueMax = max(trueMax, readings[v])
		trueSum += readings[v]
	}
	run := func(label string, p dyndiam.Protocol, inputs []int64, truth int64) {
		ms := dyndiam.NewMachines(p, n, inputs, seed,
			map[string]int64{dyndiam.ExtraDiameter: d, "K": 96})
		eng := &dyndiam.Engine{
			Machines: ms,
			Adv:      dyndiam.BoundedDiameterAdversary(n, 5, n/2, seed),
		}
		res, err := eng.Run(10_000_000)
		if err != nil || !res.Done {
			log.Fatalf("%s failed: %v", label, err)
		}
		fmt.Printf("%-10s -> %4d  (truth %4d, %4d rounds)\n",
			label, res.Outputs[0], truth, res.Rounds)
	}
	run("MAX", dyndiam.Max{}, readings, trueMax)
	run("COUNT (~N)", dyndiam.EstimateN{}, nil, n)
	run("SUM (~)", dyndiam.SumEstimate{}, readings, trueSum)
	// Output:
	// MAX        ->   48  (truth   48,  288 rounds)
	// COUNT (~N) ->   34  (truth   36, 6144 rounds)
	// SUM (~)    ->  941  (truth  922, 6144 rounds)
}

// Binary consensus: 48 replicas, a third of them holding 1, agree on one
// value while the topology changes every round. The trivial protocol must
// be told the diameter; the paper's Section 7 route instead uses an
// estimate N' of the network size, here 10% off, and no diameter knowledge
// at all. A good estimate of N removes the sensitivity to unknown diameter
// (Theorem 8); with N' only 1/3-accurate this is impossible (Theorem 7).
func ExampleViaLeaderConsensus() {
	const (
		n    = 48
		seed = 7
	)
	inputs := make([]int64, n)
	for v := range inputs {
		if v%3 == 0 {
			inputs[v] = 1
		}
	}
	run := func(label string, p dyndiam.Protocol, extra map[string]int64) {
		ms := dyndiam.NewMachines(p, n, inputs, seed, extra)
		eng := &dyndiam.Engine{
			Machines: ms,
			Adv:      dyndiam.BoundedDiameterAdversary(n, 5, n/2, seed),
		}
		res, err := eng.Run(10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Done {
			log.Fatalf("%s: no termination", label)
		}
		fmt.Printf("%-33s decided %d  rounds %4d  agreement %v\n",
			label, res.Outputs[0], res.Rounds, allSame(res.Outputs))
	}
	run("known diameter (D=10):", dyndiam.KnownDConsensus{},
		map[string]int64{dyndiam.ExtraDiameter: 10})
	run("unknown diameter, N' within 10%:", dyndiam.ViaLeaderConsensus{},
		map[string]int64{
			dyndiam.ExtraNPrime:    9 * n / 10, // 10% size estimate error
			dyndiam.ExtraCPermille: 100,        // premise: error <= 1/3 - 0.1
		})
	// Output:
	// known diameter (D=10):            decided 0  rounds  288  agreement true
	// unknown diameter, N' within 10%:  decided 0  rounds 1076  agreement true
}

// The same protocol, unchanged, under three dynamic-network models: the
// paper's Section 2 says "all our results and proofs also extend to the
// dual graph model without any modification". A 32-node network runs
// known-D confirmed flooding under fully adversarial per-round rewiring,
// a dual graph (a reliable ring plus 16 chords, each alive with
// probability 1/2 per round), and 5-interval connectivity (a stable
// backbone persisting for 5-round windows). Only the adversary changes,
// and the protocol confirms at exactly the model's safe bound D every
// time.
func ExampleDualGraphAdversary() {
	const (
		n    = 32
		seed = 4
	)
	var chords [][2]int
	for i := 0; i < 16; i++ {
		chords = append(chords, [2]int{i, (i + n/2) % n})
	}
	models := []struct {
		name string
		adv  dyndiam.Adversary
		d    int // safe dynamic-diameter bound under the model
	}{
		{"per-round rewiring", dyndiam.BoundedDiameterAdversary(n, 6, n/2, seed), 12},
		{"dual graph (ring + chords)", dyndiam.DualGraphAdversary(dyndiam.Ring(n), chords, 0.5, seed), n / 2},
		{"5-interval connectivity", dyndiam.TIntervalAdversary(n, 5, 8, seed), n - 1},
	}
	for _, m := range models {
		inputs := make([]int64, n)
		inputs[0] = 1
		ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, seed,
			map[string]int64{dyndiam.ExtraDiameter: int64(m.d)})
		eng := &dyndiam.Engine{
			Machines:          ms,
			Adv:               m.adv,
			CheckConnectivity: true,
			Terminated:        dyndiam.NodeDecided(0),
		}
		res, err := eng.Run(4 * n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s D-bound %2d: confirmed at round %2d, informed %d/%d\n",
			m.name, m.d, res.Rounds, informed(ms), n)
	}
	// Output:
	// per-round rewiring         D-bound 12: confirmed at round 12, informed 32/32
	// dual graph (ring + chords) D-bound 16: confirmed at round 16, informed 32/32
	// 5-interval connectivity    D-bound 31: confirmed at round 31, informed 32/32
}

// A vehicular network, the motivating scenario for dynamic-network
// theory. 48 vehicles drift through a region, forming a fresh radio
// topology every round (a random geometric graph, patched to stay
// connected as the model requires). A roadside unit, node 0, must
// disseminate a hazard alert and confirm delivery to all vehicles: CFLOOD.
// Three operating points:
//
//  1. The fleet operator knows a diameter bound from radio planning: any
//     alert reaches everyone within 15 hops of causal influence.
//  2. Nothing is known, so the safe fallback is D := N-1.
//  3. The operator does not know D but knows the approximate fleet size,
//     and elects a coordinator with the paper's Section 7 protocol
//     without any diameter knowledge.
//
// Knowing D, or a good fleet-size estimate, is what keeps the round
// counts diameter-scaled; with neither, Theorems 6 and 7 say poly(N)
// rounds are unavoidable for confirmation-style tasks.
func ExampleMobileAdversary() {
	const (
		n    = 48
		seed = 2016 // SPAA '16
	)
	mobile := func() dyndiam.Adversary { return dyndiam.MobileAdversary(n, 0.22, 0.03, seed) }
	confirm := func(label string, extra map[string]int64) {
		inputs := make([]int64, n)
		inputs[0] = 1
		ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, seed, extra)
		eng := &dyndiam.Engine{Machines: ms, Adv: mobile(), CheckConnectivity: true,
			Terminated: dyndiam.NodeDecided(0)}
		res, err := eng.Run(4 * n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s confirmed at round %2d  (alert delivered to %d/%d)\n",
			label, res.Rounds, informed(ms), n)
	}
	confirm("diameter bound known (15):", map[string]int64{dyndiam.ExtraDiameter: 15})
	confirm("nothing known (D := N-1):", nil)

	// Coordinator election with only a fleet-size estimate.
	ms := dyndiam.NewMachines(dyndiam.LeaderElect{}, n, make([]int64, n), seed,
		map[string]int64{
			dyndiam.ExtraNPrime:    9 * n / 10, // the manifest says "about 43 vehicles"
			dyndiam.ExtraCPermille: 100,
		})
	eng := &dyndiam.Engine{Machines: ms, Adv: mobile()}
	res, err := eng.Run(10_000_000)
	if err != nil || !res.Done {
		log.Fatalf("coordinator election failed: %v", err)
	}
	fmt.Printf("coordinator election, fleet size ±10%%: vehicle %d  rounds %d  unanimous %v\n",
		res.Outputs[0], res.Rounds, allSame(res.Outputs))
	// Output:
	// diameter bound known (15): confirmed at round 15  (alert delivered to 48/48)
	// nothing known (D := N-1):  confirmed at round 47  (alert delivered to 48/48)
	// coordinator election, fleet size ±10%: vehicle 47  rounds 1077  unanimous true
}
