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
// experiments a family of low-diameter, size-N topologies. It is a fresh
// BoundedDiameterBuilder's Build; callers that build one every round keep a
// builder instead.
func BoundedDiameterRandom(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	return new(BoundedDiameterBuilder).Build(n, targetDiam, extraEdges, src)
}

// BoundedDiameterBuilder builds BoundedDiameterRandom's graphs into memory
// it keeps between calls: the vertex permutation, the tree layers, the edge
// endpoint list, the bucket-build buffers and the graph's rows. The edges
// are drawn into a flat endpoint list first and the adjacency is built from
// it in one pass, instead of by per-edge sorted insertion. The zero value
// is ready to use; a builder is not safe for concurrent use.
type BoundedDiameterBuilder struct {
	order  []int     // the vertex permutation; order[0] is the center
	layers [][]int32 // layers[l] holds the tree vertices at depth l
	ends   []int32   // edge endpoints in pairs; the transpose overwrites them with the rows
	start  []int32   // row v fills ends[start[v]:start[v+1]]
	fill   []int32   // per-row fill cursor
	bySrc  []int32   // arcs bucketed by source, before the transpose
	g      Graph
}

// Build returns BoundedDiameterRandom(n, targetDiam, extraEdges, src): it
// makes exactly that function's draws from src, so fed the same stream it
// returns the same graph. The graph aliases the builder's memory and is
// valid only until the next Build, which is the Adversary contract's
// lifetime for a round topology. Once the buffers have grown to the
// largest round seen, Build allocates nothing.
//
//lint:hotpath
func (b *BoundedDiameterBuilder) Build(n, targetDiam, extraEdges int, src *rng.Source) *Graph {
	depth := max(targetDiam/2, 1)
	b.reserve(n, depth, max(extraEdges, 0)) //lint:allow hotpathalloc capacity growth only; steady state reuses the buffers
	if n <= 1 {
		adj := b.g.adj[:n]
		clear(adj)
		b.g.n, b.g.m, b.g.adj = n, 0, adj
		return &b.g
	}
	// Layered random tree: layer 0 is the center; vertex i in layer l
	// attaches to a random vertex in layer l-1.
	order := b.order[:n]
	src.PermInto(order)
	layers := b.layers[:depth+1]
	for l := range layers {
		layers[l] = layers[l][:0]
	}
	layers[0] = append(layers[0], int32(order[0]))
	ends := b.ends[:0]
	for i := 1; i < n; i++ {
		l := 1 + src.Intn(depth)
		for len(layers[l-1]) == 0 {
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
	b.ends = ends
	return b.fromEnds(n)
}

// reserve grows the builder's buffers to hold a graph on n vertices with a
// tree of the given depth and up to extra non-tree edges. Layers keep their
// own capacity across calls and grow by append.
func (b *BoundedDiameterBuilder) reserve(n, depth, extra int) {
	if cap(b.g.adj) < n {
		b.g.adj = make([][]int32, n)
	}
	if n <= 1 {
		return
	}
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	if len(b.layers) < depth+1 {
		b.layers = append(b.layers, make([][]int32, depth+1-len(b.layers))...)
	}
	if arcs := 2 * (n - 1 + extra); cap(b.ends) < arcs {
		b.ends = make([]int32, 0, arcs)
		b.bySrc = make([]int32, arcs)
	}
	if cap(b.start) < n+1 {
		b.start = make([]int32, n+1)
		b.fill = make([]int32, n)
	}
}

// fromEnds builds into b.g the graph on n vertices whose edges are the
// pairs (ends[2i], ends[2i+1]), which may repeat but contain no
// self-loops: the graph AddEdge would build from them, in time linear in
// n + len(ends). It is a two-pass bucket build: the arcs are bucketed by
// source, then transposed by scanning sources in ascending order, so every
// row comes out sorted with no per-row sort. The transpose drops a repeat
// as it arrives: it appends u to row v, so a repeat of (u, v) finds u
// already at the end of row v. The transposed
// rows overwrite ends, which becomes the graph's arena.
func (b *BoundedDiameterBuilder) fromEnds(n int) *Graph {
	ends := b.ends
	start := b.start[:n+1]
	clear(start)
	for _, v := range ends {
		start[v+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	fill := b.fill[:n]
	clear(fill)
	bySrc := b.bySrc[:len(ends)]
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		bySrc[start[u]+fill[u]] = v
		fill[u]++
		bySrc[start[v]+fill[v]] = u
		fill[v]++
	}
	clear(fill)
	mem := ends
	arcs := 0
	for u := int32(0); int(u) < n; u++ {
		for _, v := range bySrc[start[u]:start[u+1]] {
			at := start[v] + fill[v]
			if fill[v] > 0 && mem[at-1] == u {
				continue
			}
			mem[at] = u
			fill[v]++
			arcs++
		}
	}
	adj := b.g.adj[:n]
	for v := range adj {
		// Capped at its own length, so a later AddEdge reallocates this row
		// instead of overwriting the next row in the arena.
		end := start[v] + fill[v]
		adj[v] = mem[start[v]:end:end]
	}
	b.g.n, b.g.m, b.g.adj = n, arcs/2, adj
	return &b.g
}
