// Package graph provides the static-graph substrate used by the dynamic
// network simulator: one Graph value describes the topology of a single
// round. Vertices are dense integer ids in [0, N).
//
// The package deliberately stays small and allocation-conscious: the round
// engine builds or edits a Graph every round, and the reduction harness
// copies per-round topologies for three different adversaries. Adjacency is
// stored as sorted []int32 neighbor slices (a CSR-style layout once a graph
// is cloned, copied or bulk-built into an arena), so neighbor iteration is a
// cache-friendly linear scan in deterministic ascending order and Clone is a
// flat memcpy instead of n map clones.
package graph

// Graph is an undirected graph over vertices 0..N-1 with sorted adjacency
// slices. Self-loops are rejected; parallel edges collapse. Neighbor lists
// are always sorted ascending, so every iteration order in this package is
// deterministic.
type Graph struct {
	n   int
	m   int       // edge count, maintained incrementally
	adj [][]int32 // adj[v] is v's neighbor list, sorted ascending
	mem []int32   // arena backing adj after CopyFrom (reused across copies)
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		//lint:allow panicfree vertex counts come from construction code, never from runtime input
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, adj: make([][]int32, n)}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges in O(1).
func (g *Graph) M() int { return g.m }

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic("graph: vertex out of range")
	}
}

// search32 returns the smallest index i with s[i] >= x (len(s) if none).
func search32(s []int32, x int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert32 inserts x into the sorted slice s if absent, reporting whether it
// was inserted.
func insert32(s []int32, x int32) ([]int32, bool) {
	i := search32(s, x)
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// remove32 deletes x from the sorted slice s if present, reporting whether
// it was removed.
func remove32(s []int32, x int32) ([]int32, bool) {
	i := search32(s, x)
	if i == len(s) || s[i] != x {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// AddEdge inserts the undirected edge (u, v). Adding an existing edge is a
// no-op. It panics on self-loops or out-of-range vertices.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		//lint:allow panicfree the model forbids self-loops; an adversary emitting one is a programming error
		panic("graph: self-loop")
	}
	nu, inserted := insert32(g.adj[u], int32(v))
	if !inserted {
		return
	}
	g.adj[u] = nu
	g.adj[v], _ = insert32(g.adj[v], int32(u))
	g.m++
}

// RemoveEdge deletes the undirected edge (u, v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	nu, removed := remove32(g.adj[u], int32(v))
	if !removed {
		return
	}
	g.adj[u] = nu
	g.adj[v], _ = remove32(g.adj[v], int32(u))
	g.m--
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	s := g.adj[u]
	i := search32(s, int32(v))
	return i < len(s) && s[i] == int32(v)
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// Adj returns v's neighbor list, sorted ascending. The slice aliases the
// graph's internal storage: callers must treat it as read-only, and it is
// invalidated by any mutation of the graph. It is the allocation-free
// iteration primitive the hot paths (round engine, dynamic diameter) use.
func (g *Graph) Adj(v int) []int32 {
	g.check(v)
	return g.adj[v]
}

// Neighbors appends the neighbors of v to dst in ascending order and
// returns the result.
func (g *Graph) Neighbors(v int, dst []int) []int {
	g.check(v)
	for _, u := range g.adj[v] {
		dst = append(dst, int(u))
	}
	return dst
}

// ForEachNeighbor calls fn for every neighbor of v in ascending order.
func (g *Graph) ForEachNeighbor(v int, fn func(u int)) {
	g.check(v)
	for _, u := range g.adj[v] {
		fn(int(u))
	}
}

// Edges returns all edges as pairs with u < v, in ascending (u, v) order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Reset removes every edge while keeping the adjacency storage, so a graph
// rebuilt every round reuses its allocations once degrees stabilize.
func (g *Graph) Reset() {
	for v := range g.adj {
		g.adj[v] = g.adj[v][:0]
	}
	g.m = 0
}

// Clone returns a deep copy of g. The copy's adjacency lives in one flat
// arena (two allocations beyond the Graph value, independent of n).
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([][]int32, g.n)}
	c.CopyFrom(g)
	return c
}

// CopyFrom makes g a deep copy of src, reusing g's arena and header storage
// when capacities allow — the steady-state zero-allocation path for
// adversaries that present "base graph plus per-round edits" topologies.
func (g *Graph) CopyFrom(src *Graph) {
	need := 2 * src.m
	if cap(g.mem) < need {
		g.mem = make([]int32, need) //lint:allow hotpathalloc capacity growth only; steady state reuses the arena
	}
	g.mem = g.mem[:need]
	if len(g.adj) != src.n {
		if cap(g.adj) >= src.n {
			g.adj = g.adj[:src.n]
		} else {
			g.adj = make([][]int32, src.n) //lint:allow hotpathalloc capacity growth only; steady state reuses the headers
		}
	}
	o := 0
	for v, nb := range src.adj {
		d := len(nb)
		// Full slice expressions cap each list at its own region, so a
		// later AddEdge reallocates that vertex's list instead of
		// clobbering its arena neighbor.
		dst := g.mem[o : o+d : o+d]
		copy(dst, nb)
		g.adj[v] = dst
		o += d
	}
	g.n, g.m = src.n, src.m
}

// Union returns a new graph over max(g.N, h.N) vertices whose edge set is
// the union of both edge sets. It is used to compose subnetworks.
func Union(g, h *Graph) *Graph {
	n := g.n
	if h.n > n {
		n = h.n
	}
	out := New(n)
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				out.AddEdge(u, int(v))
			}
		}
	}
	for u, nb := range h.adj {
		for _, v := range nb {
			if int32(u) < v {
				out.AddEdge(u, int(v))
			}
		}
	}
	return out
}

// BFSInto computes hop distances from src into dist (-1 for unreachable)
// using queue as scratch; both must have length g.N(). It performs no
// allocations and returns the number of reached vertices. Vertices are
// visited in deterministic ascending-neighbor order.
//
//lint:hotpath
func (g *Graph) BFSInto(src int, dist []int32, queue []int32) int {
	g.check(src)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		dv := dist[v]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dv + 1
				queue[tail] = u
				tail++
			}
		}
	}
	return tail
}

// BFS computes hop distances from src; unreachable vertices get -1.
func (g *Graph) BFS(src int) []int {
	dist32 := make([]int32, g.n)
	queue := make([]int32, g.n)
	g.BFSInto(src, dist32, queue)
	dist := make([]int, g.n)
	for i, d := range dist32 {
		dist[i] = int(d)
	}
	return dist
}

// ConnectedInto reports whether the graph is connected, using the caller's
// scratch buffers (both of length g.N()); it performs no allocations.
func (g *Graph) ConnectedInto(dist []int32, queue []int32) bool {
	if g.n <= 1 {
		return true
	}
	return g.BFSInto(0, dist, queue) == g.n
}

// Connected reports whether the graph is connected. The empty and the
// single-vertex graphs are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return g.ConnectedInto(make([]int32, g.n), make([]int32, g.n))
}

// ConnectedOver reports whether the induced subgraph on the given vertex set
// is connected (edges with an endpoint outside the set are ignored).
func (g *Graph) ConnectedOver(set []int) bool {
	if len(set) <= 1 {
		return true
	}
	in := make([]bool, g.n)
	for _, v := range set {
		g.check(v)
		in[v] = true
	}
	seen := make([]bool, g.n)
	seen[set[0]] = true
	queue := make([]int32, 0, len(set))
	queue = append(queue, int32(set[0]))
	reached := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.adj[v] {
			if in[u] && !seen[u] {
				seen[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	// set may contain duplicates; count distinct members.
	distinct := 0
	for _, v := range set {
		if in[v] {
			in[v] = false
			distinct++
		}
	}
	return reached == distinct
}

// Eccentricity returns the maximum BFS distance from v, or -1 if some vertex
// is unreachable.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// StaticDiameter returns the diameter of the (static) graph, or -1 if it is
// disconnected. This is the classic graph diameter, distinct from the
// dynamic diameter computed by package dynet.
func (g *Graph) StaticDiameter() int {
	if g.n == 0 {
		return 0
	}
	dist := make([]int32, g.n)
	queue := make([]int32, g.n)
	diam := 0
	for v := 0; v < g.n; v++ {
		if g.BFSInto(v, dist, queue) != g.n {
			return -1
		}
		for _, d := range dist {
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}
