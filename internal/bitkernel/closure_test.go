package bitkernel

import (
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// refSpreadFrom recomputes the spread from scratch with boolean influence
// sets — the specification the incremental Closure is held to.
func refSpreadFrom(graphs []*graph.Graph, r int) int {
	if len(graphs) == 0 {
		return -1
	}
	n := graphs[0].N()
	if n <= 1 {
		return 0
	}
	inf := make([][]bool, n)
	for v := range inf {
		inf[v] = make([]bool, n)
		inf[v][v] = true
	}
	next := make([][]bool, n)
	for v := range next {
		next[v] = make([]bool, n)
	}
	for z := 1; r+z-1 < len(graphs); z++ {
		g := graphs[r+z-1]
		for v := 0; v < n; v++ {
			copy(next[v], inf[v])
			for _, u := range g.Adj(v) {
				for s, b := range inf[u] {
					if b {
						next[v][s] = true
					}
				}
			}
		}
		inf, next = next, inf
		done := true
		for v := 0; v < n && done; v++ {
			for s := 0; s < n; s++ {
				if !inf[v][s] {
					done = false
					break
				}
			}
		}
		if done {
			return z
		}
	}
	return -1
}

// refDiameter mirrors dynet.DynamicDiameter over refSpreadFrom.
func refDiameter(graphs []*graph.Graph) (int, bool) {
	T := len(graphs)
	if T == 0 {
		return 0, false
	}
	if graphs[0].N() <= 1 {
		return 0, true
	}
	spreads := make([]int, T)
	for r := 0; r < T; r++ {
		spreads[r] = refSpreadFrom(graphs, r)
	}
	return refResult(spreads)
}

// refResult is refDiameter's verdict from the per-start spreads of a
// trace of len(spreads) rounds over n >= 2 nodes.
func refResult(spreads []int) (int, bool) {
	T := len(spreads)
	d := 0
	for r := 0; r < T; r++ {
		if spreads[r] > d {
			d = spreads[r]
		}
	}
	exact := d > 0
	for r := 0; r < T; r++ {
		if spreads[r] == -1 && T-r >= d {
			exact = false
			break
		}
	}
	return d, exact
}

func randomTrace(n, T, extra int, seed uint64) []*graph.Graph {
	src := rng.New(seed)
	graphs := make([]*graph.Graph, T)
	for r := range graphs {
		graphs[r] = graph.RandomConnected(n, extra, src.Split(uint64(r)))
	}
	return graphs
}

func TestClosureMatchesScratchSpread(t *testing.T) {
	for _, tc := range []struct{ n, T, extra int }{
		{1, 3, 0}, {2, 4, 0}, {5, 8, 1}, {16, 12, 3}, {33, 10, 0}, {64, 9, 5}, {65, 9, 2},
	} {
		graphs := randomTrace(tc.n, tc.T, tc.extra, uint64(tc.n*1000+tc.T))
		for r := 0; r < tc.T; r++ {
			want := refSpreadFrom(graphs, r)
			c := NewClosure(tc.n)
			got := -1
			for z := 1; r+z-1 < tc.T; z++ {
				c.Step(graphs[r+z-1])
				if c.Complete() {
					got = c.Rounds()
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d T=%d r=%d: closure spread %d, want %d", tc.n, tc.T, r, got, want)
			}
		}
	}
}

func TestClosureInfluencedRows(t *testing.T) {
	// A 4-node line: after one round, each node is influenced by itself
	// and its line neighbors only.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	c := NewClosure(4)
	c.Step(g)
	want := [][]int{{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}}
	for v := 0; v < 4; v++ {
		row := c.Influenced(v)
		for s := 0; s < 4; s++ {
			wantSet := false
			for _, x := range want[v] {
				if x == s {
					wantSet = true
				}
			}
			if row.Test(s) != wantSet {
				t.Fatalf("node %d source %d: influenced=%v, want %v", v, s, row.Test(s), wantSet)
			}
		}
	}
}

func TestDiameterTrackerMatchesScratch(t *testing.T) {
	for _, tc := range []struct{ n, T, extra int }{
		{1, 4, 0}, {2, 6, 0}, {6, 10, 1}, {16, 14, 2}, {40, 12, 4}, {65, 8, 3},
		// Segment widths at and around the 64-bit word boundary.
		{63, 10, 2}, {64, 10, 0}, {65, 12, 5}, {129, 9, 4},
	} {
		graphs := randomTrace(tc.n, tc.T, tc.extra, uint64(tc.n*31+tc.T))
		// Every prefix must agree, not just the full trace: the tracker
		// is queried on streamed prefixes by the harness.
		tr := NewDiameterTracker(tc.n)
		for T := 1; T <= tc.T; T++ {
			tr.Advance(graphs[T-1])
			gotD, gotExact := tr.Result()
			wantD, wantExact := refDiameter(graphs[:T])
			if gotD != wantD || gotExact != wantExact {
				t.Fatalf("n=%d prefix %d: tracker (%d,%v), want (%d,%v)",
					tc.n, T, gotD, gotExact, wantD, wantExact)
			}
		}
		// Per-start spreads must match the scratch recomputation too.
		spreads := tr.Spreads()
		for r := 0; r < tc.T; r++ {
			if want := refSpreadFrom(graphs, r); spreads[r] != want {
				t.Fatalf("n=%d start %d: spread %d, want %d", tc.n, r, spreads[r], want)
			}
		}
	}
}

// rotatingStar returns T rounds of a star on n nodes whose center
// advances every round.
func rotatingStar(n, T int) []*graph.Graph {
	graphs := make([]*graph.Graph, T)
	for r := range graphs {
		g := graph.New(n)
		center := (r + 1) % n
		for v := 0; v < n; v++ {
			if v != center {
				g.AddEdge(center, v)
			}
		}
		graphs[r] = g
	}
	return graphs
}

// checkTrackerPrefixes streams graphs into a fresh tracker and fails
// unless every prefix's Result and Spreads match the scratch reference.
// The reference runs once over the whole trace: a start's spread within a
// prefix is its whole-trace spread if that fits before the prefix ends,
// and -1 otherwise. With perPrefix set, each prefix's Result is also
// recomputed by refDiameter from scratch (cubic in the trace length).
// chunk > 0 caps the tracker's slots per chunk, so that small n exercise
// the multi-chunk layout that otherwise needs n·w words near chunkWords.
func checkTrackerPrefixes(t testing.TB, graphs []*graph.Graph, perPrefix bool, chunk int) {
	t.Helper()
	n := graphs[0].N()
	full := make([]int, len(graphs))
	for r := range graphs {
		full[r] = refSpreadFrom(graphs, r)
	}
	tr := NewDiameterTracker(n)
	if chunk > 0 {
		tr.c = chunk
	}
	want := make([]int, 0, len(graphs))
	for T := 1; T <= len(graphs); T++ {
		tr.Advance(graphs[T-1])
		want = want[:T]
		for r := range want {
			want[r] = full[r]
			if full[r] > T-r {
				want[r] = -1
			}
		}
		spreads := tr.Spreads()
		if len(spreads) != T {
			t.Fatalf("n=%d chunk %d prefix %d: %d spreads, want %d", n, chunk, T, len(spreads), T)
		}
		for r, got := range spreads {
			if got != want[r] {
				t.Fatalf("n=%d chunk %d prefix %d start %d: spread %d, want %d", n, chunk, T, r, got, want[r])
			}
		}
		wantD, wantExact := 0, true
		if n > 1 {
			wantD, wantExact = refResult(want)
		}
		if perPrefix {
			wantD, wantExact = refDiameter(graphs[:T])
		}
		if gotD, gotExact := tr.Result(); gotD != wantD || gotExact != wantExact {
			t.Fatalf("n=%d chunk %d prefix %d: tracker (%d,%v), want (%d,%v)", n, chunk, T, gotD, gotExact, wantD, wantExact)
		}
	}
}

// TestDiameterTrackerWindowGrowth runs traces whose open window keeps
// outgrowing the tracker's slots: a rotating star, whose every start stays
// open for n-1 rounds, and a random trace that stalls on two disconnected
// rounds, during which no start can complete. Each runs with one chunk
// (the default at these sizes) and with chunks of 1 and 3 slots.
func TestDiameterTrackerWindowGrowth(t *testing.T) {
	star := rotatingStar(70, 150)

	n := 20
	graphs := randomTrace(n, 30, 3, 7)
	for _, r := range []int{12, 13} {
		g := graph.New(n)
		for v := 1; v < n/2; v++ { // two halves, each a path
			g.AddEdge(v-1, v)
			g.AddEdge(n/2+v-1, n/2+v)
		}
		graphs[r] = g
	}
	for _, chunk := range []int{0, 1, 3} {
		checkTrackerPrefixes(t, star, false, chunk)
		checkTrackerPrefixes(t, graphs, true, chunk)
	}
}

func TestDiameterTrackerRotatingStar(t *testing.T) {
	// The rotating star has per-round static diameter 2 but dynamic
	// diameter n-1 — the classic separation the tracker must reproduce.
	n := 9
	graphs := rotatingStar(n, 3*n)
	tr := NewDiameterTracker(n)
	for _, g := range graphs {
		tr.Advance(g)
	}
	d, exact := tr.Result()
	wantD, wantExact := refDiameter(graphs)
	if d != wantD || exact != wantExact {
		t.Fatalf("rotating star: tracker (%d,%v), want (%d,%v)", d, exact, wantD, wantExact)
	}
	if d != n-1 {
		t.Fatalf("rotating star diameter %d, want %d", d, n-1)
	}
}

func TestDiameterTrackerEmpty(t *testing.T) {
	tr := NewDiameterTracker(5)
	if d, exact := tr.Result(); d != 0 || exact {
		t.Fatalf("empty tracker: (%d,%v), want (0,false)", d, exact)
	}
}

// FuzzDiameterTrackerMatchesReference streams random traces of up to 130
// nodes into a tracker, with the default chunk or chunks of 1 to 3
// slots, and checks every prefix against the scratch reference. A round
// is a random connected graph, a random sparse graph (often disconnected,
// with isolated nodes) or the empty graph, so open windows stall and grow
// as well as drain.
func FuzzDiameterTrackerMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(12), uint8(0), uint64(1), []byte{0, 0, 1, 0})
	f.Add(uint8(63), uint8(10), uint8(1), uint64(2), []byte{0, 1, 1, 2, 0})
	f.Add(uint8(64), uint8(9), uint8(2), uint64(3), []byte{0})
	f.Add(uint8(129), uint8(8), uint8(3), uint64(4), []byte{1, 0, 0, 2, 1})
	f.Add(uint8(1), uint8(3), uint8(1), uint64(5), []byte{2})
	f.Fuzz(func(t *testing.T, nb, tb, cb uint8, seed uint64, modes []byte) {
		n := 1 + int(nb)%130
		T := 1 + int(tb)%24
		if n > 64 && T > 12 {
			T = 12 // keeps the cubic reference fast at large n
		}
		src := rng.New(seed)
		graphs := make([]*graph.Graph, T)
		for r := range graphs {
			mode := byte(0)
			if len(modes) > 0 {
				mode = modes[r%len(modes)] % 3
			}
			rs := src.Split(uint64(r))
			switch mode {
			case 0:
				graphs[r] = graph.RandomConnected(n, rs.Intn(n+1), rs)
			case 1:
				g := graph.New(n)
				for e := rs.Intn(n + 1); e > 0; e-- {
					if u, v := rs.Intn(n), rs.Intn(n); u != v {
						g.AddEdge(u, v)
					}
				}
				graphs[r] = g
			default:
				graphs[r] = graph.New(n)
			}
		}
		checkTrackerPrefixes(t, graphs, true, int(cb)%4) // 0: the default chunk
	})
}
