package adversaries

import (
	"slices"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func collect(t *testing.T, adv dynet.Adversary, n, rounds int) []*graph.Graph {
	t.Helper()
	actions := make([]dynet.Action, n)
	out := make([]*graph.Graph, rounds)
	for r := 1; r <= rounds; r++ {
		g := adv.Topology(r, actions)
		if g.N() != n {
			t.Fatalf("round %d: %d vertices, want %d", r, g.N(), n)
		}
		if !g.Connected() {
			t.Fatalf("round %d: disconnected topology", r)
		}
		// Adversaries may reuse the returned graph across calls; clone
		// to hold the round's topology past the next Topology call.
		out[r-1] = g.Clone()
	}
	return out
}

func TestRandomConnectedAlwaysConnected(t *testing.T) {
	collect(t, RandomConnected(30, 10, 1), 30, 50)
}

func TestBoundedDiameterRespectsBound(t *testing.T) {
	graphs := collect(t, BoundedDiameter(40, 6, 10, 2), 40, 30)
	for r, g := range graphs {
		if d := g.StaticDiameter(); d > 6 {
			t.Errorf("round %d: static diameter %d > 6", r+1, d)
		}
	}
}

// TestBoundedDiameterMatchesFreshBuilds pins the adversary's reused-memory
// build to BoundedDiameterRandom on the same round stream, edge for edge,
// over sizes, depths and extra-edge counts whose buffers grow and shrink
// from round to round.
func TestBoundedDiameterMatchesFreshBuilds(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 17, 48, 256} {
		for _, d := range []int{1, 2, 4, 9} {
			for _, extra := range []int{0, n / 2, 3 * n} {
				seed := uint64(n*100 + d*10 + extra)
				adv := BoundedDiameter(n, d, extra, seed)
				src := rng.New(seed)
				for r := 1; r <= 300; r++ {
					g := adv.Topology(r, nil)
					want := graph.BoundedDiameterRandom(n, d, extra, src.Split(uint64(r)))
					if g.N() != want.N() || g.M() != want.M() {
						t.Fatalf("n=%d D=%d extra=%d round %d: N, M = %d, %d; want %d, %d",
							n, d, extra, r, g.N(), g.M(), want.N(), want.M())
					}
					for v := 0; v < n; v++ {
						if !slices.Equal(g.Adj(v), want.Adj(v)) {
							t.Fatalf("n=%d D=%d extra=%d round %d: Adj(%d) = %v, want %v",
								n, d, extra, r, v, g.Adj(v), want.Adj(v))
						}
					}
				}
			}
		}
	}
}

// TestBoundedDiameterSteadyStateAllocs pins the round build to zero
// allocations once its buffers have grown. Not parallel: AllocsPerRun
// reads process-wide allocation counts.
func TestBoundedDiameterSteadyStateAllocs(t *testing.T) {
	const n = 256
	adv := BoundedDiameter(n, 4, n/2, 1)
	r := 0
	round := func() {
		r++
		adv.Topology(r, nil)
	}
	for i := 0; i < 300; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(300, round); avg != 0 {
		t.Errorf("steady-state Topology allocates %v per round, want 0", avg)
	}
}

func TestRotatingStarDynamicDiameter(t *testing.T) {
	const n = 10
	graphs := collect(t, RotatingStar(n), n, 5*n)
	d, exact := dynet.DynamicDiameter(graphs)
	if !exact || d != n-1 {
		t.Errorf("rotating star: dynamic diameter %d (exact %v), want %d", d, exact, n-1)
	}
	for r, g := range graphs {
		if g.StaticDiameter() != 2 {
			t.Errorf("round %d: static diameter %d, want 2", r+1, g.StaticDiameter())
		}
	}
}

func TestStallerBookkeeping(t *testing.T) {
	const n = 8
	s := NewStaller(n, 0)
	// All nodes receive: gate exists (node 0), nothing crosses.
	actions := make([]dynet.Action, n)
	g := s.Topology(1, actions)
	if !g.Connected() {
		t.Fatal("staller produced disconnected graph")
	}
	count := 0
	for _, inf := range s.informed {
		if inf {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("informed %d nodes while gated, want 1", count)
	}
	// Node 0 sends and its attached uninformed neighbor receives: concede.
	actions[0] = dynet.Send
	g = s.Topology(2, actions)
	if !g.Connected() {
		t.Fatal("disconnected after concession round")
	}
	count = 0
	for _, inf := range s.informed {
		if inf {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("informed %d nodes after forced concession, want 2", count)
	}
}

// TestNamed builds every table name (and so every -adv value of
// cmd/dynsim and cmd/dynnode) and rejects unknown names and the n that
// grid and hypercube cannot take.
func TestNamed(t *testing.T) {
	sizes := map[string]int{
		"line": 8, "ring": 8, "star": 8, "complete": 6, "grid": 16,
		"hypercube": 8, "random": 10, "bounded": 10, "rotating": 7,
		"staller": 5, "tinterval": 9, "dual": 10, "deltachurn": 12,
	}
	if got := len(Names()); got != len(sizes) {
		t.Errorf("%d names, want %d", got, len(sizes))
	}
	for _, name := range Names() {
		n, ok := sizes[name]
		if !ok {
			t.Errorf("%s: no test size", name)
			continue
		}
		adv, err := Named(name, n, 3, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if adv == nil {
			t.Errorf("%s: nil adversary", name)
			continue
		}
		collect(t, adv, n, 4)
	}
	bad := []struct {
		name string
		n    int
	}{
		{"nope", 8}, {"grid", 7}, {"hypercube", 9},
	}
	for _, c := range bad {
		if _, err := Named(c.name, c.n, 3, 1); err == nil {
			t.Errorf("%s n=%d: accepted", c.name, c.n)
		}
	}
}
