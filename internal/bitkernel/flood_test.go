package bitkernel

import (
	"reflect"
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// refFlood simulates the flood with per-node booleans: informed nodes
// send, any receiver adjacent to a sender adopts, stop evaluated at end
// of round.
func refFlood(cfg FloodConfig, graphs []*graph.Graph, maxRounds int) FloodResult {
	n := cfg.N
	informed := make([]bool, n)
	for v := 0; v < n; v++ {
		informed[v] = cfg.Seed.Test(v)
	}
	res := FloodResult{Rounds: maxRounds}
	for r := 1; r <= maxRounds; r++ {
		senders := 0
		for _, b := range informed {
			if b {
				senders++
			}
		}
		res.Messages += senders
		res.Bits += senders * cfg.TokenBits
		g := graphs[r-1]
		next := make([]bool, n)
		copy(next, informed)
		for v := 0; v < n; v++ {
			if informed[v] {
				continue
			}
			for _, u := range g.Adj(v) {
				if informed[u] {
					next[v] = true
					break
				}
			}
		}
		informed = next
		count := 0
		for _, b := range informed {
			if b {
				count++
			}
		}
		var done bool
		switch {
		case cfg.StopAll:
			done = count == n && r >= cfg.D
		case cfg.StopNode == cfg.Source:
			done = r >= cfg.D
		default:
			done = informed[cfg.StopNode]
		}
		if done {
			res.Rounds = r
			res.Done = true
			break
		}
	}
	inf := New(n)
	for v, b := range informed {
		if b {
			inf.Set(v)
		}
	}
	res.Informed = inf
	res.InformedCount = inf.Popcount()
	return res
}

func traceTopologies(graphs []*graph.Graph) Topologies {
	return TopologiesFunc(func(r int, _ Bits) (*graph.Graph, error) {
		return graphs[r-1], nil
	})
}

func TestFloodEngineMatchesReference(t *testing.T) {
	src := rng.New(3)
	var e FloodEngine // shared across cases: exercises buffer reuse
	for _, n := range []int{1, 2, 5, 31, 64, 65, 200} {
		for trial := 0; trial < 6; trial++ {
			maxRounds := 3 * n
			graphs := make([]*graph.Graph, maxRounds)
			for r := range graphs {
				graphs[r] = graph.RandomConnected(n, trial%3, src.Split(uint64(n*100+trial), uint64(r)))
			}
			for _, mode := range []string{"source", "node", "all"} {
				cfg := FloodConfig{
					N: n, Source: 0, D: n - 1, TokenBits: 7,
					Seed: New(n),
				}
				cfg.Seed.Set(0)
				switch mode {
				case "source":
					cfg.StopNode = 0
				case "node":
					cfg.StopNode = n - 1
				case "all":
					cfg.StopAll = true
				}
				want := refFlood(cfg, graphs, maxRounds)
				got, err := e.Run(cfg, traceTopologies(graphs), maxRounds)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, mode, err)
				}
				if got.Rounds != want.Rounds || got.Done != want.Done ||
					got.Messages != want.Messages || got.Bits != want.Bits ||
					got.InformedCount != want.InformedCount {
					t.Fatalf("n=%d %s: got %+v, want %+v", n, mode, got, want)
				}
				for v := 0; v < n; v++ {
					if got.Informed.Test(v) != want.Informed.Test(v) {
						t.Fatalf("n=%d %s: informed[%d]=%v, want %v",
							n, mode, v, got.Informed.Test(v), want.Informed.Test(v))
					}
				}
			}
		}
	}
}

func TestFloodEngineOnRoundTotals(t *testing.T) {
	// On a line with source 0, round r has exactly r senders until
	// saturation; the hook must see each executed round once, in order.
	n := 6
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	var rounds []int
	var senders []int
	cfg := FloodConfig{
		N: n, Source: 0, D: n - 1, TokenBits: 3, StopNode: n - 1,
		Seed: New(n),
		OnRound: func(r, s, b int) {
			rounds = append(rounds, r)
			senders = append(senders, s)
			if b != s*3 {
				panic("bit total mismatch")
			}
		},
	}
	cfg.Seed.Set(0)
	var e FloodEngine
	res, err := e.Run(cfg, TopologiesFunc(func(int, Bits) (*graph.Graph, error) { return g, nil }), 2*n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Rounds != n-1 {
		t.Fatalf("line flood: %+v", res)
	}
	for i, r := range rounds {
		if r != i+1 || senders[i] != i+1 {
			t.Fatalf("round %d: hook saw (r=%d, senders=%d)", i+1, r, senders[i])
		}
	}
}

func TestFloodEngineTopologyValidation(t *testing.T) {
	cfg := FloodConfig{N: 4, Source: 0, D: 3, StopNode: 0, Seed: New(4)}
	cfg.Seed.Set(0)
	var e FloodEngine
	_, err := e.Run(cfg, TopologiesFunc(func(int, Bits) (*graph.Graph, error) {
		return graph.New(5), nil // wrong node count
	}), 3)
	if err == nil {
		t.Fatal("wrong-sized topology not rejected")
	}
}

func TestFloodEngineNeverDone(t *testing.T) {
	// Disconnected stop node (the model forbids it, but the kernel must
	// still cap at maxRounds): a graph with no edges.
	n := 4
	g := graph.New(n)
	cfg := FloodConfig{N: n, Source: 0, D: n - 1, StopNode: n - 1, Seed: New(n)}
	cfg.Seed.Set(0)
	var e FloodEngine
	res, err := e.Run(cfg, TopologiesFunc(func(int, Bits) (*graph.Graph, error) { return g, nil }), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done || res.Rounds != 10 || res.InformedCount != 1 {
		t.Fatalf("edgeless flood: %+v", res)
	}
}

// floodRun is one FloodEngine run's observable output: its result and the
// sequences its OnRound and OnRoundDone hooks saw.
type floodRun struct {
	res       FloodResult
	onRound   [][3]int
	roundDone []RoundStats
}

func runRecorded(cfg FloodConfig, topo Topologies, maxRounds int) (floodRun, error) {
	var out floodRun
	cfg.OnRound = func(r, senders, bits int) {
		out.onRound = append(out.onRound, [3]int{r, senders, bits})
	}
	cfg.OnRoundDone = func(s RoundStats) { out.roundDone = append(out.roundDone, s) }
	var e FloodEngine
	res, err := e.Run(cfg, topo, maxRounds)
	out.res = res
	return out, err
}

func sameFloodResult(a, b FloodResult, n int) bool {
	if a.Rounds != b.Rounds || a.Done != b.Done || a.Messages != b.Messages ||
		a.Bits != b.Bits || a.InformedCount != b.InformedCount {
		return false
	}
	for v := 0; v < n; v++ {
		if a.Informed.Test(v) != b.Informed.Test(v) {
			return false
		}
	}
	return true
}

// TestFloodEngineIgnoresAdjacencyOnceSaturated pins the Topologies
// guarantee that a round starting with every node informed reads no
// adjacency: handing the kernel an edgeless graph in each such round must
// leave the result and both hook sequences identical to the real trace's.
// Callers (the dynet fast path) rely on this to stop patching their
// topology snapshot once the flood has saturated.
func TestFloodEngineIgnoresAdjacencyOnceSaturated(t *testing.T) {
	src := rng.New(17)
	edgelessRounds := 0
	for _, n := range []int{2, 5, 64, 65, 130} {
		maxRounds := 3 * n
		graphs := make([]*graph.Graph, maxRounds)
		for r := range graphs {
			graphs[r] = graph.RandomConnected(n, 1, src.Split(uint64(n), uint64(r)))
		}
		edgeless := graph.New(n)
		for _, full := range []bool{false, true} {
			seed := New(n)
			seed.Set(0)
			sat := 0 // the round at whose end every node is informed
			if full {
				seed.Fill(n)
			} else {
				sat = refFlood(FloodConfig{N: n, D: 1, StopAll: true, Seed: seed}, graphs, maxRounds).Rounds
			}
			for _, d := range []int{max(sat-1, 1), sat + 1 + n/2} {
				for _, stop := range []struct {
					name string
					all  bool
					node int
				}{{"all", true, 0}, {"source", false, 0}, {"other", false, n - 1}} {
					cfg := FloodConfig{
						N: n, Source: 0, D: d, TokenBits: 5,
						StopAll: stop.all, StopNode: stop.node, Seed: seed,
					}
					want := refFlood(cfg, graphs, maxRounds)
					traced, err := runRecorded(cfg, traceTopologies(graphs), maxRounds)
					if err != nil {
						t.Fatal(err)
					}
					stripped, err := runRecorded(cfg, TopologiesFunc(func(r int, informed Bits) (*graph.Graph, error) {
						if informed.Popcount() == n {
							edgelessRounds++
							return edgeless, nil
						}
						return graphs[r-1], nil
					}), maxRounds)
					if err != nil {
						t.Fatal(err)
					}
					id := struct {
						n, d int
						stop string
						full bool
					}{n, d, stop.name, full}
					if !sameFloodResult(traced.res, want, n) || !sameFloodResult(stripped.res, want, n) {
						t.Fatalf("%+v: results diverge:\nref      %+v\nreal     %+v\nedgeless %+v", id, want, traced.res, stripped.res)
					}
					if !reflect.DeepEqual(traced.onRound, stripped.onRound) {
						t.Fatalf("%+v: OnRound sequences diverge:\nreal     %v\nedgeless %v", id, traced.onRound, stripped.onRound)
					}
					if !reflect.DeepEqual(traced.roundDone, stripped.roundDone) {
						t.Fatalf("%+v: OnRoundDone sequences diverge:\nreal     %v\nedgeless %v", id, traced.roundDone, stripped.roundDone)
					}
				}
			}
		}
	}
	if edgelessRounds == 0 {
		t.Fatal("no round started saturated; the test exercised nothing")
	}
}
