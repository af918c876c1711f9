package adversaries

import (
	"slices"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func deltaGraphsEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		pa, pb := a.Adj(v), b.Adj(v)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
	}
	return true
}

// TestDeltaChurnPatternsAgree pins the DeltaAdversary contract: a fresh
// instance driven by Topology every round and another driven by
// Topology(1)+Diff produce identical topology sequences.
func TestDeltaChurnPatternsAgree(t *testing.T) {
	for _, tc := range []struct{ n, extra, rewires int }{
		{2, 0, 0}, {8, 3, 1}, {40, 10, 4}, {100, 30, 30}, {64, 5, 50},
	} {
		full := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 99)
		delta := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 99)
		actions := make([]dynet.Action, tc.n)

		snap := graph.New(tc.n)
		var d dynet.EdgeDiff
		for r := 1; r <= 20; r++ {
			want := full.Topology(r, actions)
			if r == 1 {
				snap.CopyFrom(delta.Topology(r, actions))
			} else {
				d.Reset()
				delta.Diff(r, actions, &d)
				if d.Len() > 2*tc.rewires {
					t.Fatalf("n=%d round %d: %d diff ops for %d rewires", tc.n, r, d.Len(), tc.rewires)
				}
				d.Apply(snap)
			}
			if !deltaGraphsEqual(snap, want) {
				t.Fatalf("n=%d round %d: diff pattern diverges from topology pattern", tc.n, r)
			}
			if !want.Connected() {
				t.Fatalf("n=%d round %d: churned topology disconnected", tc.n, r)
			}
		}
	}
}

// TestDeltaChurnDeterministic: same parameters, same sequence — twice.
func TestDeltaChurnDeterministic(t *testing.T) {
	a := NewDeltaChurn(32, 8, 3, 5)
	b := NewDeltaChurn(32, 8, 3, 5)
	actions := make([]dynet.Action, 32)
	for r := 1; r <= 12; r++ {
		if !deltaGraphsEqual(a.Topology(r, actions), b.Topology(r, actions)) {
			t.Fatalf("round %d: two same-seed instances diverge", r)
		}
	}
}

// mapChurn is the reference DeltaChurn bookkeeping: one multiplicity map
// over tree and slot edges (never shrinking) plus a maintained graph that
// every edge op is applied to. The production type must emit the same
// scripts op for op.
type mapChurn struct {
	n       int
	slots   [][2]int
	rewires int
	src     *rng.Source
	counts  map[int64]int
	cur     *graph.Graph

	// Rewires whose Del or Add the multiplicities suppressed.
	suppressedDel, suppressedAdd int
}

func newMapChurn(n, extra, rewires int, seed uint64) *mapChurn {
	if n < 2 {
		extra, rewires = 0, 0
	}
	src := rng.New(seed)
	tree := graph.RandomConnected(n, 0, src.Split('t'))
	c := &mapChurn{
		n: n, rewires: rewires, src: src,
		counts: make(map[int64]int), cur: tree,
	}
	for v := 0; v < n; v++ {
		for _, u := range tree.Adj(v) {
			if int(u) > v {
				c.counts[c.key(v, int(u))]++
			}
		}
	}
	ssrc := src.Split('s')
	for i := 0; i < extra; i++ {
		e := c.randomEdge(ssrc)
		c.slots = append(c.slots, e)
		if c.counts[c.key(e[0], e[1])]++; c.counts[c.key(e[0], e[1])] == 1 {
			c.cur.AddEdge(e[0], e[1])
		}
	}
	return c
}

func (c *mapChurn) key(u, v int) int64 { return int64(u)*int64(c.n) + int64(v) }

func (c *mapChurn) randomEdge(src *rng.Source) [2]int {
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

func (c *mapChurn) advance(r int, d *dynet.EdgeDiff) {
	if r <= 1 || len(c.slots) == 0 {
		return
	}
	rsrc := c.src.Split(uint64(r))
	for i := 0; i < c.rewires; i++ {
		si := rsrc.Intn(len(c.slots))
		old, e := c.slots[si], c.randomEdge(rsrc)
		c.slots[si] = e
		if c.counts[c.key(old[0], old[1])]--; c.counts[c.key(old[0], old[1])] == 0 {
			c.cur.RemoveEdge(old[0], old[1])
			if d != nil {
				d.Del(old[0], old[1])
			}
		} else {
			c.suppressedDel++
		}
		if c.counts[c.key(e[0], e[1])]++; c.counts[c.key(e[0], e[1])] == 1 {
			c.cur.AddEdge(e[0], e[1])
			if d != nil {
				d.Add(e[0], e[1])
			}
		} else {
			c.suppressedAdd++
		}
	}
}

// TestDeltaChurnMatchesMapReference pins the scripts op for op against
// the map-based reference, on sizes where slots often land on each other
// and on tree edges, and checks the reference really suppressed ops there.
func TestDeltaChurnMatchesMapReference(t *testing.T) {
	const rounds = 600
	for _, tc := range []struct{ n, extra, rewires int }{
		{3, 4, 1}, {8, 3, 1}, {16, 40, 30}, {64, 5, 50}, {200, 60, 20},
	} {
		c := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 17)
		ref := newMapChurn(tc.n, tc.extra, tc.rewires, 17)
		actions := make([]dynet.Action, tc.n)
		if !deltaGraphsEqual(c.Topology(1, actions), ref.cur) {
			t.Fatalf("%+v: base topologies differ", tc)
		}
		var got, want dynet.EdgeDiff
		for r := 2; r <= rounds; r++ {
			got.Reset()
			want.Reset()
			c.Diff(r, actions, &got)
			ref.advance(r, &want)
			if !slices.Equal(got.Ops, want.Ops) {
				t.Fatalf("%+v round %d: script %v, reference %v", tc, r, got.Ops, want.Ops)
			}
		}
		if ref.suppressedDel == 0 || ref.suppressedAdd == 0 {
			t.Fatalf("%+v: reference suppressed %d dels and %d adds, want both > 0",
				tc, ref.suppressedDel, ref.suppressedAdd)
		}
		ref.advance(rounds+1, nil)
		if !deltaGraphsEqual(c.Topology(rounds+1, actions), ref.cur) {
			t.Fatalf("%+v: rebuilt topology differs from the reference", tc)
		}
	}
}

// FuzzDeltaChurnMatchesMapReference widens TestDeltaChurnMatchesMapReference
// to arbitrary small sizes, seeds and horizons: every round's script must
// equal the map-based reference op for op, and the topology rebuilt from
// the slot chains at the end must equal the reference graph. Inputs
// outside n ∈ [2, 64], extra ∈ [0, 80], rewires ∈ [0, 60] and
// rounds ∈ [0, 300] wrap into those ranges.
func FuzzDeltaChurnMatchesMapReference(f *testing.F) {
	for _, tc := range []struct{ n, extra, rewires uint8 }{
		{3, 4, 1}, {8, 3, 1}, {16, 40, 30}, {64, 5, 50}, {200, 60, 20},
	} {
		f.Add(tc.n, tc.extra, tc.rewires, uint64(17), uint16(300))
	}
	f.Fuzz(func(t *testing.T, n, extra, rewires uint8, seed uint64, rounds uint16) {
		nn, ne, nr, rr := 2+int(n)%63, int(extra)%81, int(rewires)%61, int(rounds)%301
		c := NewDeltaChurn(nn, ne, nr, seed)
		ref := newMapChurn(nn, ne, nr, seed)
		actions := make([]dynet.Action, nn)
		if !deltaGraphsEqual(c.Topology(1, actions), ref.cur) {
			t.Fatalf("n=%d extra=%d rewires=%d seed=%d: base topologies differ", nn, ne, nr, seed)
		}
		var got, want dynet.EdgeDiff
		for r := 2; r <= rr; r++ {
			got.Reset()
			want.Reset()
			c.Diff(r, actions, &got)
			ref.advance(r, &want)
			if !slices.Equal(got.Ops, want.Ops) {
				t.Fatalf("n=%d extra=%d rewires=%d seed=%d round %d: script %v, reference %v",
					nn, ne, nr, seed, r, got.Ops, want.Ops)
			}
		}
		last := max(rr, 1) + 1
		ref.advance(last, nil)
		if !deltaGraphsEqual(c.Topology(last, actions), ref.cur) {
			t.Fatalf("n=%d extra=%d rewires=%d seed=%d: rebuilt topology differs from the reference",
				nn, ne, nr, seed)
		}
	})
}

// TestDeltaChurnChainsCoverSlots checks the slot chains after every Diff,
// on sizes where slots collide heavily: walking every vertex's chain
// visits each slot exactly once, and each slot sits in the chain of its
// own edge's low endpoint. A slot left behind in its old chain would
// otherwise surface only as a wrong suppression many rounds later.
func TestDeltaChurnChainsCoverSlots(t *testing.T) {
	const rounds = 600
	for _, tc := range []struct{ n, extra, rewires int }{
		{3, 4, 1}, {8, 3, 1}, {16, 40, 30},
	} {
		c := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 17)
		actions := make([]dynet.Action, tc.n)
		seen := make([]bool, len(c.slots))
		var d dynet.EdgeDiff
		for r := 1; r <= rounds; r++ {
			if r > 1 {
				d.Reset()
				c.Diff(r, actions, &d)
			}
			clear(seen)
			visited := 0
			for u := range c.head {
				for s := c.head[u]; s != 0; s = c.next[s-1] {
					si := int(s - 1)
					if seen[si] {
						t.Fatalf("%+v round %d: slot %d reached twice (vertex %d)", tc, r, si, u)
					}
					seen[si] = true
					visited++
					if c.slots[si][0] != u {
						t.Fatalf("%+v round %d: slot %d holds %v but sits in vertex %d's chain",
							tc, r, si, c.slots[si], u)
					}
				}
			}
			if visited != len(c.slots) {
				t.Fatalf("%+v round %d: chains cover %d of %d slots", tc, r, visited, len(c.slots))
			}
		}
	}
}

// TestDeltaChurnMixedPatterns drives one instance with Topology(1), Diff
// for rounds 2..k and Topology again from round k+1: the stale maintained
// topology must be rebuilt to match a Topology-only instance, and stay
// equal afterwards.
func TestDeltaChurnMixedPatterns(t *testing.T) {
	const k = 9
	for _, tc := range []struct{ n, extra, rewires int }{
		{2, 0, 0}, {8, 3, 1}, {16, 40, 30}, {100, 30, 30},
	} {
		mixed := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 3)
		full := NewDeltaChurn(tc.n, tc.extra, tc.rewires, 3)
		actions := make([]dynet.Action, tc.n)
		mixed.Topology(1, actions)
		full.Topology(1, actions)
		var d dynet.EdgeDiff
		for r := 2; r <= k; r++ {
			d.Reset()
			mixed.Diff(r, actions, &d)
			full.Topology(r, actions)
		}
		for r := k + 1; r <= k+5; r++ {
			if !deltaGraphsEqual(mixed.Topology(r, actions), full.Topology(r, actions)) {
				t.Fatalf("%+v round %d: mixed pattern diverges from Topology-only", tc, r)
			}
		}
	}
}

// TestDeltaChurnDiffSteadyStateAllocs pins the per-round cost of the Diff
// pattern: once the script has grown to fit, a round allocates nothing
// (the round-keyed rng.Split child stays on the stack).
func TestDeltaChurnDiffSteadyStateAllocs(t *testing.T) {
	const n = 4096
	c := NewDeltaChurn(n, n/8, n/64, 5)
	actions := make([]dynet.Action, n)
	c.Topology(1, actions)
	var d dynet.EdgeDiff
	r := 1
	step := func() {
		r++
		d.Reset()
		c.Diff(r, actions, &d)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("steady-state Diff allocates %v per round, want 0", avg)
	}
}

// BenchmarkDeltaChurnDiff measures one Diff round at the flood-huge size:
// N=10^5, N/8 slot edges, N/64 rewires per round.
func BenchmarkDeltaChurnDiff(b *testing.B) {
	const n = 100_000
	c := NewDeltaChurn(n, n/8, n/64, 1)
	actions := make([]dynet.Action, n)
	c.Topology(1, actions)
	var d dynet.EdgeDiff
	b.ReportAllocs()
	b.ResetTimer()
	for r := 2; r < b.N+2; r++ {
		d.Reset()
		c.Diff(r, actions, &d)
	}
}
