package dynet

import (
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func repeatGraphs(g *graph.Graph, t int) []*graph.Graph {
	out := make([]*graph.Graph, t)
	for i := range out {
		out[i] = g
	}
	return out
}

func TestSpreadFromStaticLine(t *testing.T) {
	const n = 10
	graphs := repeatGraphs(graph.Line(n), 3*n)
	if z := SpreadFrom(graphs, 0); z != n-1 {
		t.Errorf("spread on %d-line = %d, want %d", n, z, n-1)
	}
	if z := SpreadFrom(graphs, 5); z != n-1 {
		t.Errorf("spread from r=5 = %d, want %d", n, n-1)
	}
}

func TestSpreadIncomplete(t *testing.T) {
	graphs := repeatGraphs(graph.Line(10), 4) // too short for the line
	if z := SpreadFrom(graphs, 0); z != -1 {
		t.Errorf("spread = %d, want -1 (incomplete)", z)
	}
}

func TestDynamicDiameterStaticCases(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"line10", graph.Line(10), 9},
		{"ring8", graph.Ring(8), 4},
		{"star9", graph.Star(9), 2},
		{"complete5", graph.Complete(5), 1},
	}
	for _, c := range cases {
		d, exact := DynamicDiameter(repeatGraphs(c.g, 40))
		if !exact {
			t.Errorf("%s: not exact", c.name)
		}
		if d != c.want {
			t.Errorf("%s: dynamic diameter = %d, want %d", c.name, d, c.want)
		}
	}
}

func TestDynamicDiameterRotatingStar(t *testing.T) {
	// A star whose center rotates every round is a classic example of the
	// dynamic diameter exceeding every round's static diameter (2): a
	// node's influence reaches the current center in one round, but that
	// center is a leaf from the next round on, so "everyone-influences-
	// everyone" information must chase the rotating center around — it
	// takes n-1 rounds, not 2.
	const n = 12
	graphs := make([]*graph.Graph, 60)
	for r := range graphs {
		g := graph.New(n)
		center := (r + 1) % n
		for v := 0; v < n; v++ {
			if v != center {
				g.AddEdge(center, v)
			}
		}
		graphs[r] = g
	}
	d, exact := DynamicDiameter(graphs)
	if !exact || d != n-1 {
		t.Errorf("rotating star: d=%d exact=%v, want %d true", d, exact, n-1)
	}
	for _, g := range graphs {
		if g.StaticDiameter() != 2 {
			t.Fatal("per-round static diameter should be 2")
		}
	}
}

func TestDynamicDiameterGrowsWhenTopologyStalls(t *testing.T) {
	// First 10 rounds a complete graph, afterwards a long line: start
	// times inside the line segment see the line's diameter.
	const n = 16
	var graphs []*graph.Graph
	for i := 0; i < 10; i++ {
		graphs = append(graphs, graph.Complete(n))
	}
	for i := 0; i < 5*n; i++ {
		graphs = append(graphs, graph.Line(n))
	}
	d, exact := DynamicDiameter(graphs)
	if !exact {
		t.Fatal("not exact")
	}
	if d != n-1 {
		t.Errorf("d = %d, want %d", d, n-1)
	}
}

func TestDynamicDiameterSingleNode(t *testing.T) {
	d, exact := DynamicDiameter(repeatGraphs(graph.New(1), 5))
	if d != 0 || !exact {
		t.Errorf("single node: d=%d exact=%v, want 0 true", d, exact)
	}
}

func TestDynamicDiameterMatchesEngineTrace(t *testing.T) {
	// Measure the diameter of a random dynamic network produced through
	// an actual engine run with trace recording.
	const n = 24
	src := rng.New(42)
	adv := AdversaryFunc(func(r int, _ []Action) *graph.Graph {
		return graph.RandomConnected(n, n, src.Split(uint64(r)))
	})
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 1, nil)
	tr := &Trace{KeepTopologies: true}
	e := &Engine{Machines: ms, Adv: adv, Trace: tr,
		Terminated: func([]Machine) bool { return false }} // run full horizon
	if _, err := e.Run(120); err != nil {
		t.Fatal(err)
	}
	d, exact := DynamicDiameter(tr.Topologies())
	if !exact {
		t.Fatal("trace too short for exact diameter")
	}
	if d < 1 || d > n {
		t.Errorf("implausible dynamic diameter %d for connected %d-node network", d, n)
	}
}

func BenchmarkDynamicDiameter(b *testing.B) {
	const n = 128
	src := rng.New(1)
	graphs := make([]*graph.Graph, 60)
	for r := range graphs {
		graphs[r] = graph.RandomConnected(n, n, src.Split(uint64(r)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DynamicDiameter(graphs)
	}
}
