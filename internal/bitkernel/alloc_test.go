package bitkernel

import (
	"testing"

	"dyndiam/internal/graph"
)

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// TestFloodEngineRunNoAllocs pins the hotpath contract: once its buffers
// are warm, FloodEngine.Run performs zero heap allocations per execution
// when the topology source is itself allocation-free.
func TestFloodEngineRunNoAllocs(t *testing.T) {
	n := 512
	g := ring(n)
	topo := TopologiesFunc(func(int, Bits) (*graph.Graph, error) { return g, nil })
	seed := New(n)
	seed.Set(0)
	cfg := FloodConfig{N: n, Source: 0, D: n - 1, TokenBits: 8, StopAll: true, Seed: seed}

	var fe FloodEngine
	if _, err := fe.Run(cfg, topo, 4*n); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := fe.Run(cfg, topo, 4*n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FloodEngine.Run allocates %v times per run, want 0", allocs)
	}
}

// TestClosureStepNoAllocs pins that stepping the causal closure allocates
// nothing. The topology is two disjoint rings, so no row ever reaches the
// full set: the closure never completes and every Step sweeps all rows.
func TestClosureStepNoAllocs(t *testing.T) {
	n := 256
	g := graph.New(n)
	for v := 0; v < n/2; v++ {
		g.AddEdge(v, (v+1)%(n/2))
		g.AddEdge(n/2+v, n/2+(v+1)%(n/2))
	}
	c := NewClosure(n)
	allocs := testing.AllocsPerRun(10, func() { c.Step(g) })
	if allocs != 0 {
		t.Fatalf("Closure.Step allocates %v times per step, want 0", allocs)
	}
	if c.Complete() {
		t.Fatal("closure over two disjoint rings completed")
	}
}

// TestDiameterTrackerSteadyStateAllocs pins that once its ring is as wide
// as the open window gets, DiameterTracker.Advance allocates nothing per
// round: the only growth left is the amortized append to Spreads, which
// averages to zero over the runs.
func TestDiameterTrackerSteadyStateAllocs(t *testing.T) {
	n := 96
	graphs := randomTrace(n, 16, n/2, 11)
	tr := NewDiameterTracker(n)
	for r := 0; r < 20*len(graphs); r++ { // warm the ring
		tr.Advance(graphs[r%len(graphs)])
	}
	r := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Advance(graphs[r%len(graphs)])
		r++
	})
	if allocs != 0 {
		t.Fatalf("DiameterTracker.Advance allocates %v times per round, want 0", allocs)
	}
	if _, exact := tr.Result(); !exact {
		t.Fatal("warm trace did not certify its diameter")
	}
}
