package bitkernel

import "dyndiam/internal/graph"

// This file maintains the paper's causal relation incrementally. Following
// Section 2: (U, r) → (V, r+1) holds iff (U, V) is an edge of the
// round-(r+1) topology or U = V, ⇝ is the transitive closure, and the
// dynamic diameter is the minimum D such that (U, r) ⇝ (V, r+D) for every
// r >= 0 and all U, V. A Closure tracks the spread from one start time; a
// DiameterTracker steps every open start time of a streamed topology
// sequence at once, so dynamic-diameter queries neither re-simulate the
// trace per start time nor retain topologies.

// Closure tracks, for one fixed start time, which sources have causally
// influenced each node: row v is the set of U with (U, r) ⇝ (v, r+z)
// after z Step calls. Rows are double-buffered so each Step uses only the
// previous round's state (influence travels one hop per round), and rows
// that reach the full set are frozen and skipped — once every source
// reaches v, v's row can only stay full, so the kernel's total work over a
// run is bounded by the rounds each row spends below full.
type Closure struct {
	n         int
	cur, nxt  *Matrix
	full      []bool
	fullCount int
	rounds    int
	newly     []int32 // per-Step scratch: rows that reached full this round
}

// NewClosure returns a Closure over n nodes at its start time (row v
// holds exactly {v}).
func NewClosure(n int) *Closure {
	c := &Closure{
		n:     n,
		cur:   NewMatrix(n, n),
		nxt:   NewMatrix(n, n),
		full:  make([]bool, n),
		newly: make([]int32, 0, n),
	}
	for v := 0; v < n; v++ {
		c.cur.Row(v).Set(v)
	}
	if n == 1 {
		// The single row {0} is already the full set.
		c.full[0] = true
		c.fullCount = 1
	}
	return c
}

// Step advances the closure by one round using g, the topology of round
// start+rounds+1. It is a no-op once the closure is complete. The round
// body performs no allocations: rows live in two preallocated matrices
// and the newly-full scratch list was sized to n at construction.
//
//lint:hotpath
//lint:pure
func (c *Closure) Step(g *graph.Graph) {
	if c.fullCount == c.n {
		return
	}
	c.rounds++
	n := c.n
	c.newly = c.newly[:0]
	for v := 0; v < n; v++ {
		if c.full[v] {
			// Both buffered copies of row v were filled when it froze,
			// so the row needs no copy and no ORs this round.
			continue
		}
		nv := c.nxt.Row(v)
		nv.CopyFrom(c.cur.Row(v))
		became := false
		for _, u := range g.Adj(v) {
			if c.full[u] {
				// A frozen neighbor's row is the full set: one Fill
				// replaces the remaining ORs.
				nv.Fill(n)
				became = true
				break
			}
			nv.Or(c.cur.Row(int(u)))
		}
		if !became && nv.FullUpTo(n) {
			became = true
		}
		if became {
			// Defer freezing until the sweep ends: full[] and the cur
			// rows must reflect the previous round while other rows are
			// still being computed from them.
			c.newly = append(c.newly, int32(v))
		}
	}
	for _, v := range c.newly {
		c.full[v] = true
		c.fullCount++
		c.cur.Row(int(v)).Fill(n)
		c.nxt.Row(int(v)).Fill(n)
	}
	c.cur, c.nxt = c.nxt, c.cur
}

// Complete reports whether every node has been influenced by every source.
func (c *Closure) Complete() bool { return c.fullCount == c.n }

// Rounds returns how many Step calls have advanced the closure (the
// spread z once Complete).
func (c *Closure) Rounds() int { return c.rounds }

// Influenced returns node v's influence row: the set of sources U with
// (U, start) ⇝ (v, start+Rounds()). The view aliases kernel storage and
// is invalidated by the next Step.
func (c *Closure) Influenced(v int) Bits { return c.cur.Row(v) }

// DiameterTracker computes the dynamic diameter of a streamed topology
// sequence: Advance once per round, Result at any prefix.
//
// All open start times share double-buffered bit matrices. Each open
// start s owns a slot, and row v holds one n-bit segment per slot, the
// set of U with (U, s) ⇝ (v, now), so a round walks the adjacency once
// and ORs whole multi-start rows instead of stepping one Closure per
// start. The design rests on a nesting fact: C_s(v) ⊇ C_{s+1}(v), because
// (U, s) → (U, s+1). So start times complete in start order: the open
// starts are one window, and only the oldest needs testing.
//
// The nesting also makes each row's full segments a prefix of the window,
// which a kernel could skip as Closure skips frozen rows. Rows are ORed
// whole instead, free slots included: on the bounded-diameter family the
// skippable prefix is under a third of the segments, and the per-row
// bookkeeping to skip it cost more than it saved at every n measured
// (48 to 1024; see CHANGES.md).
//
// Slots are grouped into chunks, each a pair of n-row matrices of at most
// chunkWords words. A completed start's slot goes to the next start; only
// when none is free does the tracker add one, widening the last chunk or
// starting a new one. So there is exactly one slot per start open in the
// widest window seen — two n×n-bit matrices per open start, as one Closure
// per start would hold — and adding a slot copies at most one chunk.
type DiameterTracker struct {
	n, w     int        // nodes; words per n-bit segment
	c        int        // slots per full chunk
	slots    int        // slots in all chunks
	cur, nxt [][]uint64 // per chunk: n rows × its slots × w words
	free     []int      // slots not held by an open start
	open     []int      // slots of the open starts, oldest first
	t        int        // rounds advanced; graphs seen are rounds 1..t
	spreads  []int      // per start time: completed spread, or -1 while open
	d        int        // max completed spread
}

// chunkWords caps one chunk's matrix (1 MiB), so that widening the window
// never copies more, while small n keep every slot in one chunk and so
// one OR run per row.
const chunkWords = 1 << 17

// NewDiameterTracker returns a tracker over n nodes.
func NewDiameterTracker(n int) *DiameterTracker {
	w := WordsFor(n)
	return &DiameterTracker{n: n, w: w, c: max(1, chunkWords/max(n*w, 1))}
}

// Advance feeds the tracker round t+1's topology: it opens start time t
// (0-based) and steps every open start by one round. Only a window wider
// than any before allocates (a slot is added); otherwise Advance
// allocates nothing beyond the amortized growth of the Spreads slice.
//
//lint:hotpath
//lint:pure
func (t *DiameterTracker) Advance(g *graph.Graph) {
	t.t++
	if t.n <= 1 {
		// The single row {0} is already full: every spread is 0.
		t.spreads = append(t.spreads, 0)
		return
	}
	t.spreads = append(t.spreads, -1)
	if len(t.free) == 0 {
		t.addSlot() //lint:allow hotpathalloc a window wider than any before; narrower ones reuse freed slots
	}
	slot := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.open = append(t.open, slot)
	n := t.n
	ch, stride, at := t.segment(slot)
	for v := 0; v < n; v++ {
		seg := Bits(ch[v*stride+at : v*stride+at+t.w])
		seg.Zero()
		seg.Set(v)
	}
	for k, cur := range t.cur {
		nxt, stride := t.nxt[k], len(cur)/n
		for v := 0; v < n; v++ {
			// A connected round gives every node a neighbour; a round
			// that leaves v isolated just copies its row.
			row, adj := v*stride, g.Adj(v)
			dst, self := Bits(nxt[row:row+stride]), cur[row:row+stride]
			if len(adj) == 0 {
				dst.CopyFrom(self)
				continue
			}
			r := int(adj[0]) * stride
			dst.OrOf(self, cur[r:r+stride])
			for _, u := range adj[1:] {
				r := int(u) * stride
				dst.Or(cur[r : r+stride])
			}
		}
	}
	t.cur, t.nxt = t.nxt, t.cur
	for len(t.open) > 0 && t.oldestComplete() {
		z := len(t.open) // the oldest open start is t.t-z
		t.spreads[t.t-z] = z
		t.d = max(t.d, z)
		t.free = append(t.free, t.open[0])
		t.open = t.open[:copy(t.open, t.open[1:])]
	}
}

// segment locates slot's segments in cur: chunk ch holds row v's segment
// at ch[v*stride+at:][:w].
func (t *DiameterTracker) segment(slot int) (ch []uint64, stride, at int) {
	ch = t.cur[slot/t.c]
	return ch, len(ch) / t.n, slot % t.c * t.w
}

// oldestComplete reports whether the oldest open start's segment is full
// in every row.
func (t *DiameterTracker) oldestComplete() bool {
	ch, stride, at := t.segment(t.open[0])
	for row := 0; row < len(ch); row += stride {
		if !Bits(ch[row+at : row+at+t.w]).FullUpTo(t.n) {
			return false
		}
	}
	return true
}

// addSlot adds a free slot, widening the last chunk by one slot or
// starting a new chunk when the last is full. Only cur's rows move: nxt
// is overwritten before it is read.
func (t *DiameterTracker) addSlot() {
	n, w := t.n, t.w
	k, size := t.slots/t.c, t.slots%t.c+1
	cur, nxt := make([]uint64, n*size*w), make([]uint64, n*size*w)
	if size == 1 {
		t.cur, t.nxt = append(t.cur, cur), append(t.nxt, nxt)
	} else {
		old, was := t.cur[k], (size-1)*w
		for v := 0; v < n; v++ {
			copy(cur[v*size*w:], old[v*was:(v+1)*was])
		}
		t.cur[k], t.nxt[k] = cur, nxt
	}
	t.free = append(t.free, t.slots)
	t.slots++
}

// Rounds returns how many topologies have been advanced.
func (t *DiameterTracker) Rounds() int { return t.t }

// Spreads returns, per start time r (0-based), the spread completed from
// r, or -1 if it has not completed within the rounds advanced so far. The
// slice aliases tracker storage.
func (t *DiameterTracker) Spreads() []int { return t.spreads }

// Result returns the dynamic diameter d witnessed by the rounds advanced
// so far and whether the prefix certifies it: every start time either
// completed its spread, or had fewer than d rounds remaining (so its
// incompleteness is consistent with diameter d). When exact is false, d
// is only a lower bound. The semantics match dynet.DynamicDiameter on
// the same topology sequence.
func (t *DiameterTracker) Result() (d int, exact bool) {
	if t.t == 0 {
		return 0, false
	}
	if t.n <= 1 {
		return 0, true
	}
	// The oldest open start has had the most rounds: if it is still open
	// after d rounds, the true diameter exceeds d.
	return t.d, t.d > 0 && len(t.open) < t.d
}
