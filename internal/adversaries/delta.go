package adversaries

import (
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// DeltaChurn is the churn family restated as a dynet.DeltaAdversary: a
// persistent random spanning tree plus `extra` slot edges, of which
// `rewires` are re-sampled every round. Because only the rewired slots
// change, round r > 1 is naturally an O(rewires) edge-op script — the
// flood fast path applies it to one mutable CSR snapshot instead of
// copying the whole graph, so per-round topology cost scales with churn.
//
// An edge is present exactly when it is a tree edge or some slot holds
// it. Tree membership is an O(1) test against the tree's parent array,
// computed once at construction; slot multiplicities live in a count
// table keyed only by edges that some slot holds (at most `extra` keys),
// and a key leaves the table when its count reaches zero. A rewire emits
// a Del for the slot's old edge only when neither the tree nor another
// slot still covers it, then an Add for its new edge only when nothing
// covered it before, so overlapping slots never emit a premature
// deletion, and every round's topology contains the tree and is
// connected unconditionally.
//
// Under the Diff pattern the consumer applies each script to its own
// snapshot, so DeltaChurn does not maintain a graph of its own there:
// Diff marks the maintained topology stale, and Topology rebuilds it from
// the tree plus the slots only when it is stale. Under the Topology
// pattern each round's script is applied to the maintained topology in
// place.
//
// Per-round randomness comes from a round-keyed split of the seed, so two
// instances built with the same parameters produce identical topology
// sequences regardless of which DeltaAdversary calling pattern drives
// them — the package tests pin Topology-vs-Diff equivalence.
type DeltaChurn struct {
	n       int
	slots   [][2]int
	rewires int
	src     *rng.Source
	parent  []int32          // tree parent of each vertex, -1 at the root
	counts  map[uint64]int32 // multiplicity of each slot-held edge
	cur     *graph.Graph     // maintained topology for the Topology pattern
	stale   bool             // Diff has advanced the slots past cur
	script  dynet.EdgeDiff   // Topology's per-round script, applied to cur
}

// NewDeltaChurn builds a delta-encoding churn adversary over n nodes with
// extra random slot edges, of which rewires are re-sampled each round.
func NewDeltaChurn(n, extra, rewires int, seed uint64) *DeltaChurn {
	if n < 2 {
		extra, rewires = 0, 0
	}
	extra = max(extra, 0)
	src := rng.New(seed)
	tree := graph.RandomConnected(n, 0, src.Split('t'))
	c := &DeltaChurn{
		n: n, rewires: rewires, src: src,
		slots:  make([][2]int, 0, extra),
		parent: treeParents(tree),
		counts: make(map[uint64]int32, extra),
		cur:    tree,
	}
	ssrc := src.Split('s')
	for i := 0; i < extra; i++ {
		e := c.randomEdge(ssrc)
		c.slots = append(c.slots, e)
		c.counts[c.key(e)]++
		c.cur.AddEdge(e[0], e[1])
	}
	return c
}

// treeParents roots the spanning tree t at vertex 0 and returns each
// vertex's parent, -1 at the root. In a tree every neighbor of a vertex
// other than its parent is a child, so the BFS needs no visited set.
func treeParents(t *graph.Graph) []int32 {
	parent := make([]int32, t.N())
	if len(parent) == 0 {
		return parent
	}
	parent[0] = -1
	queue := make([]int32, 1, len(parent))
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range t.Adj(int(v)) {
			if u != parent[v] {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return parent
}

// key maps a normalized edge (u < v) to its count-table key.
func (c *DeltaChurn) key(e [2]int) uint64 { return uint64(e[0])*uint64(c.n) + uint64(e[1]) }

// hold adds a slot to edge k's count and returns the new count.
func (c *DeltaChurn) hold(k uint64) int32 {
	n := c.counts[k] + 1
	c.counts[k] = n
	return n
}

// release removes a slot from edge k's count, deleting the key when the
// count reaches zero so the table never outgrows the slots, and returns
// the new count.
func (c *DeltaChurn) release(k uint64) int32 {
	n := c.counts[k] - 1
	if n == 0 {
		delete(c.counts, k)
	} else {
		c.counts[k] = n
	}
	return n
}

// inTree reports whether the edge is a spanning-tree edge.
func (c *DeltaChurn) inTree(e [2]int) bool {
	return c.parent[e[0]] == int32(e[1]) || c.parent[e[1]] == int32(e[0])
}

// randomEdge samples a uniform non-loop edge, normalized to u < v.
func (c *DeltaChurn) randomEdge(src *rng.Source) [2]int {
	for {
		u, v := src.Intn(c.n), src.Intn(c.n)
		if u != v {
			if u > v {
				u, v = v, u
			}
			return [2]int{u, v}
		}
	}
}

// advance re-samples round r's rewired slots and appends the resulting
// edge-op script to d. Rounds r <= 1 are the base topology and change
// nothing.
func (c *DeltaChurn) advance(r int, d *dynet.EdgeDiff) {
	if r <= 1 || len(c.slots) == 0 {
		return
	}
	rsrc := c.src.Split(uint64(r))
	for i := 0; i < c.rewires; i++ {
		si := rsrc.Intn(len(c.slots))
		old, e := c.slots[si], c.randomEdge(rsrc)
		c.slots[si] = e
		if c.release(c.key(old)) == 0 && !c.inTree(old) {
			d.Del(old[0], old[1])
		}
		if c.hold(c.key(e)) == 1 && !c.inTree(e) {
			d.Add(e[0], e[1])
		}
	}
}

// Topology implements dynet.Adversary.
func (c *DeltaChurn) Topology(r int, _ []dynet.Action) *graph.Graph {
	c.script.Reset()
	c.advance(r, &c.script)
	if c.stale {
		c.rebuild()
	} else {
		c.script.Apply(c.cur)
	}
	return c.cur
}

// Diff implements dynet.DeltaAdversary. The consumer applies d to its own
// snapshot, so cur is left behind until Topology next needs it.
func (c *DeltaChurn) Diff(r int, _ []dynet.Action, d *dynet.EdgeDiff) {
	c.advance(r, d)
	c.stale = true
}

// rebuild resets cur to the tree plus the current slots.
func (c *DeltaChurn) rebuild() {
	c.cur.Reset()
	for v, p := range c.parent {
		if p >= 0 {
			c.cur.AddEdge(v, int(p))
		}
	}
	for _, e := range c.slots {
		c.cur.AddEdge(e[0], e[1])
	}
	c.stale = false
}
