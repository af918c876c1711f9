package hearfrom

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func TestMaxOnRing(t *testing.T) {
	const n = 24
	inputs := make([]int64, n)
	src := rng.New(4)
	var want int64
	for v := range inputs {
		inputs[v] = int64(src.Intn(1000))
		if inputs[v] > want {
			want = inputs[v]
		}
	}
	d := graph.Ring(n).StaticDiameter()
	ms := dynet.NewMachines(Max{}, n, inputs, 7, map[string]int64{ExtraD: int64(d)})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	res, err := e.Run(100000)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, out := range res.Outputs {
		if out != want {
			t.Errorf("node %d output %d, want %d", v, out, want)
		}
	}
}

func TestMaxOnDynamicTopology(t *testing.T) {
	const n = 40
	inputs := make([]int64, n)
	src := rng.New(10)
	var want int64
	for v := range inputs {
		inputs[v] = int64(src.Intn(1 << 16))
		if inputs[v] > want {
			want = inputs[v]
		}
	}
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.BoundedDiameterRandom(n, 4, n/2, src.Split(uint64(r)))
	})
	ms := dynet.NewMachines(Max{}, n, inputs, 11, map[string]int64{ExtraD: 8})
	e := &dynet.Engine{Machines: ms, Adv: adv}
	res, err := e.Run(100000)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, out := range res.Outputs {
		if out != want {
			t.Errorf("node %d output %d, want %d", v, out, want)
		}
	}
}

func TestHearFromCompletes(t *testing.T) {
	const n = 24
	d := graph.Ring(n).StaticDiameter()
	ms := dynet.NewMachines(HearFrom{}, n, nil, 3, map[string]int64{
		ExtraD: int64(d), ExtraK: 48,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	res, err := e.Run(500000)
	if err != nil || !res.Done {
		t.Fatalf("res.Done=%v err=%v", res != nil && res.Done, err)
	}
	for v, out := range res.Outputs {
		if out != n {
			t.Errorf("node %d output %d, want %d", v, out, n)
		}
	}
}

func TestHearFromWithholdsWhenCountLow(t *testing.T) {
	// If the horizon elapses but gossip could not complete (bound D far
	// too small), nodes must not output: the sketch check withholds.
	const n = 40
	ms := dynet.NewMachines(HearFrom{}, n, nil, 5, map[string]int64{
		ExtraD: 1, ExtraK: 32, ExtraRounds: 20,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Line(n))}
	res, err := e.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	outputs := 0
	for v := range res.Decided {
		if res.Decided[v] {
			outputs++
		}
	}
	if outputs > n/4 {
		t.Errorf("%d/%d nodes output despite incomplete hearing", outputs, n)
	}
}

func BenchmarkMaxRing(b *testing.B) {
	const n = 64
	g := graph.Ring(n)
	d := int64(g.StaticDiameter())
	for i := 0; i < b.N; i++ {
		inputs := make([]int64, n)
		inputs[n/2] = 999
		ms := dynet.NewMachines(Max{}, n, inputs, uint64(i), map[string]int64{ExtraD: d})
		e := &dynet.Engine{Machines: ms, Adv: dynet.Static(g)}
		if _, err := e.Run(100000); err != nil {
			b.Fatal(err)
		}
	}
}
