package counting

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

func runProbe(t *testing.T, n int, inputs []int64, extra map[string]int64, seed uint64) *dynet.Result {
	t.Helper()
	ms := dynet.NewMachines(MajorityProbe{}, n, inputs, seed, extra)
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	res, err := e.Run(1000000)
	if err != nil || !res.Done {
		t.Fatalf("probe run failed: done=%v err=%v", res != nil && res.Done, err)
	}
	return res
}

func TestMajorityProbeUnanimous(t *testing.T) {
	const n = 24
	inputs := make([]int64, n) // everyone holds 0
	d := graph.Ring(n).StaticDiameter()
	res := runProbe(t, n, inputs, map[string]int64{ExtraD: int64(d), ExtraK: 64}, 3)
	yes := 0
	for _, out := range res.Outputs {
		if out == 1 {
			yes++
		}
	}
	if yes < n*3/4 {
		t.Errorf("unanimous value: only %d/%d nodes claimed majority", yes, n)
	}
}

func TestMajorityProbeSoundOnMinority(t *testing.T) {
	// 25% hold value 1: no node holding 1 may claim a majority.
	const n = 32
	inputs := make([]int64, n)
	for v := 0; v < n/4; v++ {
		inputs[v] = 1
	}
	d := graph.Ring(n).StaticDiameter()
	res := runProbe(t, n, inputs, map[string]int64{ExtraD: int64(d), ExtraK: 64}, 9)
	for v := 0; v < n/4; v++ {
		if res.Outputs[v] == 1 {
			t.Errorf("node %d claimed majority for a 25%% value", v)
		}
	}
}

func TestMajorityProbeSoundOnExactHalf(t *testing.T) {
	// A 50/50 split is not a strict majority for either side.
	const n = 32
	inputs := make([]int64, n)
	for v := 0; v < n/2; v++ {
		inputs[v] = 1
	}
	d := graph.Ring(n).StaticDiameter()
	res := runProbe(t, n, inputs, map[string]int64{ExtraD: int64(d), ExtraK: 96}, 5)
	for v, out := range res.Outputs {
		if out == 1 {
			t.Errorf("node %d claimed majority in a 50/50 split", v)
		}
	}
}

func TestMajorityProbeConservativeWhenHorizonShort(t *testing.T) {
	// Unanimous value but a horizon too short for gossip: the probe must
	// *withhold* majority claims (under-count), not fabricate them.
	const n = 40
	inputs := make([]int64, n)
	ms := dynet.NewMachines(MajorityProbe{}, n, inputs, 7, map[string]int64{
		ExtraD: 1, ExtraK: 32, ExtraRounds: 25,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Line(n))}
	res, err := e.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, out := range res.Outputs {
		if out == 1 {
			claims++
		}
	}
	if claims > 0 {
		t.Errorf("%d nodes claimed majority with a %d-round horizon on a line", claims, 25)
	}
}

func TestMajorityProbeWithSkewedNPrime(t *testing.T) {
	// N' = 1.2N with c = 0.1 (|N'-N|/N = 0.2 <= 1/3 - 0.1): unanimity
	// must still clear the threshold.
	const n = 30
	inputs := make([]int64, n)
	d := graph.Ring(n).StaticDiameter()
	res := runProbe(t, n, inputs, map[string]int64{
		ExtraD: int64(d), ExtraK: 96,
		ExtraNPrime:    int64(1.2 * n),
		ExtraCPermille: 100,
	}, 11)
	yes := 0
	for _, out := range res.Outputs {
		if out == 1 {
			yes++
		}
	}
	if yes < n*3/4 {
		t.Errorf("skewed N': only %d/%d claimed majority on unanimity", yes, n)
	}
}
