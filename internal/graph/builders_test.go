package graph

import (
	"fmt"
	"slices"
	"testing"

	"dyndiam/internal/rng"
)

// refBoundedDiameterRandom is BoundedDiameterRandom built edge by edge with
// AddEdge: the same RNG calls in the same order, so fed the same stream it
// must yield the same graph.
func refBoundedDiameterRandom(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	depth := max(targetDiam/2, 1)
	order := src.Perm(n)
	layers := make([][]int, depth+1)
	layers[0] = []int{order[0]}
	for i := 1; i < n; i++ {
		l := 1 + src.Intn(depth)
		for len(layers[l-1]) == 0 {
			l--
		}
		parent := layers[l-1][src.Intn(len(layers[l-1]))]
		g.AddEdge(order[i], parent)
		layers[l] = append(layers[l], order[i])
	}
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// sameGraph reports the first difference between g and want, or "".
func sameGraph(g, want *Graph) string {
	if g.N() != want.N() || g.M() != want.M() {
		return fmt.Sprintf("N, M = %d, %d; want %d, %d", g.N(), g.M(), want.N(), want.M())
	}
	for v := 0; v < g.N(); v++ {
		if !slices.Equal(g.Adj(v), want.Adj(v)) {
			return fmt.Sprintf("Adj(%d) = %v, want %v", v, g.Adj(v), want.Adj(v))
		}
	}
	return ""
}

// TestBoundedDiameterRandomMatchesAddEdge pins the bucket build to the
// AddEdge reference on the identical RNG stream, including extraEdges = 4n,
// where most extra edges repeat, both fresh and from one builder reused
// across every size, and then checks that edits to the built graph (whose
// rows share one arena) leave every other row intact.
func TestBoundedDiameterRandomMatchesAddEdge(t *testing.T) {
	t.Parallel()
	var shared BoundedDiameterBuilder
	for _, n := range []int{1, 2, 3, 17, 128, 256} {
		for _, extra := range []int{0, n / 2, 4 * n} {
			for _, diam := range []int{2, 4, 9} {
				seed := uint64(n*1000 + extra*10 + diam)
				want := refBoundedDiameterRandom(n, diam, extra, rng.New(seed))
				if d := sameGraph(shared.Build(n, diam, extra, rng.New(seed)), want); d != "" {
					t.Fatalf("reused builder, n=%d extra=%d diam=%d: %s", n, extra, diam, d)
				}
				g := BoundedDiameterRandom(n, diam, extra, rng.New(seed))
				if d := sameGraph(g, want); d != "" {
					t.Fatalf("n=%d extra=%d diam=%d: %s", n, extra, diam, d)
				}
				if n < 2 {
					continue
				}
				edits := rng.New(seed + 1)
				for i := 0; i < 4*n; i++ {
					u, v := edits.Intn(n), edits.Intn(n)
					if u == v {
						continue
					}
					if edits.Intn(2) == 0 {
						g.AddEdge(u, v)
						want.AddEdge(u, v)
					} else {
						g.RemoveEdge(u, v)
						want.RemoveEdge(u, v)
					}
					if d := sameGraph(g, want); d != "" {
						t.Fatalf("n=%d extra=%d diam=%d after edit %d (%d, %d): %s", n, extra, diam, i, u, v, d)
					}
				}
			}
		}
	}
}
