package consensus

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func runConsensus(t *testing.T, p dynet.Protocol, n int, inputs []int64, adv dynet.Adversary, extra map[string]int64, seed uint64, maxRounds int) *dynet.Result {
	t.Helper()
	ms := dynet.NewMachines(p, n, inputs, seed, extra)
	e := &dynet.Engine{Machines: ms, Adv: adv}
	res, err := e.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("%s did not terminate in %d rounds", p.Name(), maxRounds)
	}
	return res
}

func checkAgreementValidity(t *testing.T, inputs []int64, res *dynet.Result) {
	t.Helper()
	decided := res.Outputs[0]
	sawInput := false
	for _, in := range inputs {
		if in == decided {
			sawInput = true
		}
	}
	if !sawInput {
		t.Errorf("decided %d, which no node held (validity)", decided)
	}
	for v, out := range res.Outputs {
		if out != decided {
			t.Errorf("node %d decided %d, node 0 decided %d (agreement)", v, out, decided)
		}
	}
}

func mixedInputs(n int, src *rng.Source) []int64 {
	in := make([]int64, n)
	for v := range in {
		if src.Bool() {
			in[v] = 1
		}
	}
	return in
}

func TestKnownDAgreementOnRing(t *testing.T) {
	const n = 24
	src := rng.New(1)
	inputs := mixedInputs(n, src)
	d := graph.Ring(n).StaticDiameter()
	res := runConsensus(t, KnownD{}, n, inputs, dynet.Static(graph.Ring(n)),
		map[string]int64{ExtraD: int64(d)}, 2, 100000)
	checkAgreementValidity(t, inputs, res)
}

func TestKnownDValidityUnanimous(t *testing.T) {
	// All inputs equal: the decision must be that value.
	const n = 16
	for _, bit := range []int64{0, 1} {
		inputs := make([]int64, n)
		for v := range inputs {
			inputs[v] = bit
		}
		res := runConsensus(t, KnownD{}, n, inputs, dynet.Static(graph.Star(n)),
			map[string]int64{ExtraD: 2}, 5, 50000)
		for v, out := range res.Outputs {
			if out != bit {
				t.Errorf("bit=%d: node %d decided %d (validity violated)", bit, v, out)
			}
		}
	}
}

func TestKnownDOnDynamicTopology(t *testing.T) {
	const n = 32
	src := rng.New(44)
	inputs := mixedInputs(n, src)
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.BoundedDiameterRandom(n, 4, n, src.Split(uint64(r)))
	})
	res := runConsensus(t, KnownD{}, n, inputs, adv,
		map[string]int64{ExtraD: 8}, 6, 100000)
	checkAgreementValidity(t, inputs, res)
}

func TestKnownDTimeScalesWithD(t *testing.T) {
	// The horizon (hence termination round) is Θ((D+w)·w): compare a
	// diameter-2 star against a diameter-(n-1) line at the same N.
	const n = 32
	inputs := make([]int64, n)
	resStar := runConsensus(t, KnownD{}, n, inputs, dynet.Static(graph.Star(n)),
		map[string]int64{ExtraD: 2}, 3, 1000000)
	resLine := runConsensus(t, KnownD{}, n, inputs, dynet.Static(graph.Line(n)),
		map[string]int64{ExtraD: n - 1}, 3, 1000000)
	if resStar.Rounds >= resLine.Rounds {
		t.Errorf("star (%d rounds) not faster than line (%d rounds)", resStar.Rounds, resLine.Rounds)
	}
}

func TestViaLeaderUnknownD(t *testing.T) {
	// Consensus without any diameter knowledge, via Section 7 leader
	// election with an approximate N'.
	const n = 20
	src := rng.New(17)
	inputs := mixedInputs(n, src)
	extra := map[string]int64{
		"nprime":    int64(1.15 * n), // |N'-N|/N = 0.15 <= 1/3 - 0.1
		"cpermille": 100,
	}
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.RandomConnected(n, n, src.Split(uint64(r)))
	})
	res := runConsensus(t, ViaLeader{}, n, inputs, adv, extra, 9, 2000000)
	checkAgreementValidity(t, inputs, res)
	// The decision must specifically be the max-id node's input (the
	// elected leader is the largest id).
	if res.Outputs[0] != inputs[n-1] {
		t.Errorf("decided %d, want leader's input %d", res.Outputs[0], inputs[n-1])
	}
}

func TestViaLeaderUnanimousValidity(t *testing.T) {
	const n = 12
	for _, bit := range []int64{0, 1} {
		inputs := make([]int64, n)
		for v := range inputs {
			inputs[v] = bit
		}
		res := runConsensus(t, ViaLeader{}, n, inputs, dynet.Static(graph.Complete(n)), nil, 4, 1000000)
		for v, out := range res.Outputs {
			if out != bit {
				t.Errorf("bit=%d: node %d decided %d", bit, v, out)
			}
		}
	}
}

func BenchmarkKnownDRing(b *testing.B) {
	const n = 64
	g := graph.Ring(n)
	d := int64(g.StaticDiameter())
	for i := 0; i < b.N; i++ {
		inputs := make([]int64, n)
		inputs[0] = 1
		ms := dynet.NewMachines(KnownD{}, n, inputs, uint64(i), map[string]int64{ExtraD: d})
		e := &dynet.Engine{Machines: ms, Adv: dynet.Static(g)}
		res, err := e.Run(100000)
		if err != nil || !res.Done {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}
