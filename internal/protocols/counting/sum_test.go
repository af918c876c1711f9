package counting

import (
	"math"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func TestWeightedSketchConcentrates(t *testing.T) {
	root := rng.New(4)
	const k = 128
	s := NewSketch(k)
	var want int64
	for node := 0; node < 60; node++ {
		w := int64(node%7) + 1
		want += w
		s.SetOwnWeighted(0, w, 9, root.Split(uint64(node)))
	}
	got := s.Estimate(0)
	if math.Abs(got-float64(want))/float64(want) > 0.3 {
		t.Errorf("sum estimate %.1f, want ~%d", got, want)
	}
}

func TestWeightedZeroContributesNothing(t *testing.T) {
	s := NewSketch(8)
	s.SetOwnWeighted(0, 0, 1, rng.New(1))
	if len(s.Values()) != 0 {
		t.Error("zero weight created a sketch row")
	}
}

func TestWeightedSubsumesCounting(t *testing.T) {
	// Weight-1 contributions must match SetOwn exactly (same draws).
	root := rng.New(7)
	a, b := NewSketch(16), NewSketch(16)
	for node := 0; node < 20; node++ {
		a.SetOwn(3, 5, root.Split(uint64(node)))
		b.SetOwnWeighted(3, 1, 5, root.Split(uint64(node)))
	}
	if a.Estimate(3) != b.Estimate(3) {
		t.Errorf("weight-1 estimate %.4f != counting estimate %.4f", b.Estimate(3), a.Estimate(3))
	}
}

func TestSumEstimateProtocol(t *testing.T) {
	const n = 24
	inputs := make([]int64, n)
	var want int64
	src := rng.New(11)
	for v := range inputs {
		inputs[v] = int64(src.Intn(10))
		want += inputs[v]
	}
	d := graph.Ring(n).StaticDiameter()
	ms := dynet.NewMachines(SumEstimate{}, n, inputs, 3, map[string]int64{
		ExtraD: int64(d), ExtraK: 96,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	res, err := e.Run(1000000)
	if err != nil || !res.Done {
		t.Fatalf("sum estimate run failed: %v", err)
	}
	for v := 0; v < n; v++ {
		got := float64(res.Outputs[v])
		if math.Abs(got-float64(want))/float64(want) > 0.35 {
			t.Errorf("node %d estimated sum %v, want ~%d", v, got, want)
		}
	}
}

func TestSumEstimateAllZeros(t *testing.T) {
	const n = 8
	ms := dynet.NewMachines(SumEstimate{}, n, make([]int64, n), 2, map[string]int64{
		ExtraD: int64(n), ExtraK: 16, ExtraRounds: 50,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Complete(n))}
	res, err := e.Run(100)
	if err != nil || !res.Done {
		t.Fatalf("run failed: %v", err)
	}
	for v, out := range res.Outputs {
		if out != 0 {
			t.Errorf("node %d estimated %d for an all-zero sum", v, out)
		}
	}
}
