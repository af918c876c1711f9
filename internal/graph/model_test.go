package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"dyndiam/internal/rng"
)

// modelGraph is a deliberately naive map-of-maps graph: the reference
// implementation the sorted-slice Graph must agree with operation by
// operation. It mirrors the pre-CSR map-based representation this package
// replaced, so these tests are the behavioral bridge across that rewrite.
type modelGraph struct {
	n   int
	adj map[int]map[int]bool
}

func newModel(n int) *modelGraph {
	return &modelGraph{n: n, adj: map[int]map[int]bool{}}
}

func (m *modelGraph) addEdge(u, v int) {
	if m.adj[u] == nil {
		m.adj[u] = map[int]bool{}
	}
	if m.adj[v] == nil {
		m.adj[v] = map[int]bool{}
	}
	m.adj[u][v] = true
	m.adj[v][u] = true
}

func (m *modelGraph) removeEdge(u, v int) {
	delete(m.adj[u], v)
	delete(m.adj[v], u)
}

func (m *modelGraph) hasEdge(u, v int) bool { return m.adj[u][v] }

func (m *modelGraph) edgeCount() int {
	total := 0
	for u, nb := range m.adj {
		for v := range nb {
			if u < v {
				total++
			}
		}
	}
	return total
}

func (m *modelGraph) neighbors(v int) []int {
	var out []int
	for u := range m.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// bfs is an independent distance computation over the model (visiting
// neighbors in sorted order, like Graph does).
func (m *modelGraph) bfs(src int) []int {
	dist := make([]int, m.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range m.neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// checkAgainstModel verifies every observable accessor of g against m.
func checkAgainstModel(t *testing.T, g *Graph, m *modelGraph) {
	t.Helper()
	if g.N() != m.n {
		t.Fatalf("N = %d, model %d", g.N(), m.n)
	}
	if g.M() != m.edgeCount() {
		t.Fatalf("M = %d, model %d", g.M(), m.edgeCount())
	}
	for v := 0; v < m.n; v++ {
		want := m.neighbors(v)
		adj := g.Adj(v)
		if len(adj) != len(want) || g.Degree(v) != len(want) {
			t.Fatalf("Adj(%d) = %v, model %v", v, adj, want)
		}
		for i, u := range adj {
			if int(u) != want[i] {
				t.Fatalf("Adj(%d) = %v, model %v", v, adj, want)
			}
			if i > 0 && adj[i-1] >= u {
				t.Fatalf("Adj(%d) = %v not strictly ascending", v, adj)
			}
		}
		for u := 0; u < m.n; u++ {
			if g.HasEdge(v, u) != m.hasEdge(v, u) {
				t.Fatalf("HasEdge(%d,%d) = %v, model %v", v, u, g.HasEdge(v, u), !g.HasEdge(v, u))
			}
		}
	}
	edges := g.Edges()
	if len(edges) != m.edgeCount() {
		t.Fatalf("Edges len = %d, model %d", len(edges), m.edgeCount())
	}
	for i, e := range edges {
		if !m.hasEdge(e[0], e[1]) {
			t.Fatalf("Edges[%d] = %v absent from model", i, e)
		}
		if i > 0 && !(edges[i-1][0] < e[0] || (edges[i-1][0] == e[0] && edges[i-1][1] < e[1])) {
			t.Fatalf("Edges not in ascending (u,v) order at %d: %v, %v", i, edges[i-1], e)
		}
	}
	if m.n > 0 {
		for _, src := range []int{0, m.n / 2, m.n - 1} {
			want := m.bfs(src)
			got := g.BFS(src)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("BFS(%d)[%d] = %d, model %d", src, v, got[v], want[v])
				}
			}
		}
	}
}

// TestGraphMatchesMapModel drives Graph and the map model through the same
// random operation sequence — adds, removes, resets, arena copies, clones —
// and checks full observable equivalence after every step.
func TestGraphMatchesMapModel(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		src := rng.New(seed)
		g := New(n)
		m := newModel(n)
		spare := New(1) // CopyFrom target with mismatched initial size
		for op := 0; op < 200; op++ {
			u := int(src.Uint64() % uint64(n))
			v := int(src.Uint64() % uint64(n))
			switch src.Uint64() % 10 {
			case 0, 1, 2, 3, 4: // bias toward adds so graphs grow
				if u != v {
					g.AddEdge(u, v)
					m.addEdge(u, v)
				}
			case 5, 6:
				g.RemoveEdge(u, v)
				if u != v {
					m.removeEdge(u, v)
				}
			case 7:
				g.Reset()
				m = newModel(n)
			case 8:
				// Round-trip through the reusable arena: g -> spare -> g.
				spare.CopyFrom(g)
				g.CopyFrom(spare)
			case 9:
				g = g.Clone()
			}
		}
		checkAgainstModel(t, g, m)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCopyFromIsolation pins the arena-aliasing contract: after CopyFrom,
// mutating the copy must never disturb the source or sibling vertices whose
// lists share the arena.
func TestCopyFromIsolation(t *testing.T) {
	t.Parallel()
	src := RandomConnected(24, 30, rng.New(7))
	dst := New(24)
	dst.CopyFrom(src)
	before := src.Edges()
	// Grow a mid-arena vertex's list: the full-slice-expression caps must
	// force a reallocation instead of clobbering vertex 13's region.
	for v := 0; v < 24; v++ {
		if v != 12 && !dst.HasEdge(12, v) {
			dst.AddEdge(12, v)
		}
	}
	after := src.Edges()
	if len(before) != len(after) {
		t.Fatalf("source edge count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("source edge %d changed: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestCopyFromSteadyStateAllocs pins the zero-allocation reuse path: once a
// destination's arena has grown to fit, repeated CopyFrom calls allocate
// nothing. It must not run in parallel: AllocsPerRun reads process-wide
// malloc counts, so concurrently running tests would be charged to it.
func TestCopyFromSteadyStateAllocs(t *testing.T) {
	src := RandomConnected(64, 96, rng.New(3))
	dst := New(64)
	dst.CopyFrom(src) // warm the arena
	if avg := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); avg != 0 {
		t.Errorf("CopyFrom steady state allocates %v per call, want 0", avg)
	}
	g := New(64)
	g.CopyFrom(src)
	if avg := testing.AllocsPerRun(100, func() { g.Reset() }); avg != 0 {
		t.Errorf("Reset allocates %v per call, want 0", avg)
	}
	dist := make([]int32, 64)
	queue := make([]int32, 64)
	if avg := testing.AllocsPerRun(100, func() { src.BFSInto(0, dist, queue) }); avg != 0 {
		t.Errorf("BFSInto allocates %v per call, want 0", avg)
	}
}
