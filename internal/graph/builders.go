package graph

import "dyndiam/internal/rng"

// Line returns the path 0-1-2-...-(n-1).
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns the cycle over n >= 3 vertices (for n < 3 it degrades to Line).
func Ring(n int) *Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns the star with center 0 and leaves 1..n-1.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// RandomConnected returns a connected graph on n vertices with roughly
// extraEdges edges beyond a random spanning tree, drawn from src.
func RandomConnected(n, extraEdges int, src *rng.Source) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	// Random spanning tree: attach each vertex (in random order) to a
	// uniformly random earlier vertex.
	order := src.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(order[i], order[src.Intn(i)])
	}
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// BoundedDiameterRandom returns a connected random graph whose static
// diameter is at most targetDiam: a random tree of depth <= targetDiam/2
// around a random center, plus extra random edges. It gives the upper-bound
// experiments a family of low-diameter, size-N topologies.
//
// The adversary families build one of these every round, so the edges are
// drawn into a flat endpoint list first and the adjacency is built in one
// pass (fromEnds) instead of by per-edge sorted insertion.
func BoundedDiameterRandom(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	if n <= 1 {
		return New(n)
	}
	depth := targetDiam / 2
	if depth < 1 {
		depth = 1
	}
	ends := make([]int32, 0, 2*(n-1+max(extraEdges, 0)))
	// Layered random tree: layer 0 is the center; vertex i in layer l
	// attaches to a random vertex in layer l-1.
	order := src.Perm(n)
	layers := make([][]int32, depth+1)
	layers[0] = []int32{int32(order[0])}
	for i := 1; i < n; i++ {
		l := 1 + src.Intn(depth)
		for layers[l-1] == nil || len(layers[l-1]) == 0 {
			l--
		}
		parent := layers[l-1][src.Intn(len(layers[l-1]))]
		ends = append(ends, int32(order[i]), parent)
		layers[l] = append(layers[l], int32(order[i]))
	}
	for k := 0; k < extraEdges; k++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			ends = append(ends, int32(u), int32(v))
		}
	}
	return fromEnds(n, ends)
}

// fromEnds returns the graph on n vertices whose edges are the pairs
// (ends[2i], ends[2i+1]), which may repeat but contain no self-loops: the
// graph AddEdge would build from them, in time linear in n + len(ends). It
// is a two-pass bucket build: the arcs are bucketed by source, then
// transposed by scanning sources in ascending order, so every row comes out
// sorted with no per-row sort and repeats sit side by side for the dedup.
// The transposed rows overwrite ends, which becomes the graph's arena.
func fromEnds(n int, ends []int32) *Graph {
	start := make([]int32, n+1) // row v fills [start[v], start[v+1])
	for _, v := range ends {
		start[v+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	fill := make([]int32, n)
	bySrc := make([]int32, len(ends))
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		bySrc[start[u]+fill[u]] = v
		fill[u]++
		bySrc[start[v]+fill[v]] = u
		fill[v]++
	}
	clear(fill)
	mem := ends
	for u := int32(0); int(u) < n; u++ {
		for _, v := range bySrc[start[u]:start[u+1]] {
			mem[start[v]+fill[v]] = u
			fill[v]++
		}
	}
	g := &Graph{n: n, adj: make([][]int32, n)}
	arcs := 0
	for v := range g.adj {
		row := mem[start[v]:start[v+1]]
		k := 0
		for i, u := range row {
			if i == 0 || u != row[k-1] {
				row[k] = u
				k++
			}
		}
		// Capped at its own length, so a later AddEdge reallocates this row
		// instead of overwriting the next row in the arena.
		g.adj[v] = row[:k:k]
		arcs += k
	}
	g.m = arcs / 2
	return g
}
