package flood

import (
	"testing"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func machines(t *testing.T, p dynet.Protocol, n int, token int64, seed uint64, extra map[string]int64) []dynet.Machine {
	t.Helper()
	inputs := make([]int64, n)
	src := 0
	if extra != nil {
		if s, ok := extra[ExtraSource]; ok {
			src = int(s)
		}
	}
	inputs[src] = token
	return dynet.NewMachines(p, n, inputs, seed, extra)
}

func TestCFloodKnownDExactOnLine(t *testing.T) {
	const n = 20
	ms := machines(t, CFlood{}, n, 42, 1, map[string]int64{ExtraD: n - 1})
	e := &dynet.Engine{
		Machines:   ms,
		Adv:        dynet.Static(graph.Line(n)),
		Terminated: dynet.NodeDecided(0),
	}
	res, err := e.Run(3 * n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Rounds != n-1 {
		t.Fatalf("source confirmed at round %d (done=%v), want exactly D = %d", res.Rounds, res.Done, n-1)
	}
	for v, m := range ms {
		if !Informed(m) {
			t.Errorf("node %d uninformed at confirmation", v)
		}
		if out, ok := m.Output(); !ok || out != 42 {
			t.Errorf("node %d output (%d, %v), want (42, true)", v, out, ok)
		}
	}
}

func TestCFloodNeverConfirmsEarly(t *testing.T) {
	// With bound D the source must not output before round D even on an
	// easy topology.
	const n = 10
	ms := machines(t, CFlood{}, n, 7, 1, map[string]int64{ExtraD: 50})
	e := &dynet.Engine{
		Machines:   ms,
		Adv:        dynet.Static(graph.Complete(n)),
		Terminated: dynet.NodeDecided(0),
	}
	res, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 {
		t.Errorf("confirmed at round %d, want 50", res.Rounds)
	}
}

func TestCFloodUnknownDDefaultsToN(t *testing.T) {
	const n = 12
	ms := machines(t, CFlood{}, n, 9, 1, nil) // no ExtraD: pessimistic N-1
	e := &dynet.Engine{
		Machines:   ms,
		Adv:        dynet.Static(graph.Star(n)),
		Terminated: dynet.NodeDecided(0),
	}
	res, err := e.Run(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != n-1 {
		t.Errorf("unknown-D baseline confirmed at %d, want N-1 = %d", res.Rounds, n-1)
	}
}

func TestCFloodOnRandomDynamicNetworks(t *testing.T) {
	// Audit CFLOOD output correctness on random connected dynamic
	// topologies: whenever the source confirms, every node is informed.
	const n = 40
	for seed := uint64(0); seed < 5; seed++ {
		src := rng.New(seed + 100)
		adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
			return graph.RandomConnected(n, n/3, src.Split(uint64(r)))
		})
		ms := machines(t, CFlood{}, n, 5, seed, map[string]int64{ExtraD: n - 1})
		e := &dynet.Engine{Machines: ms, Adv: adv, Terminated: dynet.NodeDecided(0)}
		res, err := e.Run(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("seed %d: source never confirmed", seed)
		}
		for v, m := range ms {
			if !Informed(m) {
				t.Errorf("seed %d: node %d uninformed at confirmation", seed, v)
			}
		}
	}
}

func TestCFloodSourceOverride(t *testing.T) {
	const n = 8
	ms := machines(t, CFlood{}, n, 3, 1, map[string]int64{ExtraD: n - 1, ExtraSource: 5})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n)), Terminated: dynet.NodeDecided(5)}
	res, err := e.Run(3 * n)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if out, ok := ms[5].Output(); !ok || out != 3 {
		t.Errorf("source output (%d, %v), want (3, true)", out, ok)
	}
}

func TestAdaptiveStallerDefeatsPFloodButNotCFlood(t *testing.T) {
	const (
		n      = 64
		rounds = 4096
	)
	// PFlood with p = 1/2: once k nodes are informed, the staller leaks a
	// new node only when all k send simultaneously (probability 2^-k), so
	// the informed set grows like log₂(rounds) — about 12 here — instead
	// of reaching all 64.
	msP := machines(t, PFlood{}, n, 1, 3, map[string]int64{ExtraRounds: 1 << 20})
	eP := &dynet.Engine{Machines: msP, Adv: adversaries.NewStaller(n, 0), CheckConnectivity: true,
		Terminated: func([]dynet.Machine) bool { return false }}
	if _, err := eP.Run(rounds); err != nil {
		t.Fatal(err)
	}
	informedP := 0
	for _, m := range msP {
		if Informed(m) {
			informedP++
		}
	}
	if informedP > 24 { // generous slack over the ~log₂(4096) expectation
		t.Errorf("staller: probabilistic flooding informed %d/%d nodes in %d rounds (expected ~12)",
			informedP, n, rounds)
	}

	// CFlood (always send): the staller is forced to concede one node
	// per round; everyone is informed within N-1 rounds.
	msC := machines(t, CFlood{}, n, 1, 3, map[string]int64{ExtraD: n - 1})
	eC := &dynet.Engine{Machines: msC, Adv: adversaries.NewStaller(n, 0), CheckConnectivity: true, Terminated: dynet.NodeDecided(0)}
	res, err := eC.Run(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("always-send flooding did not complete against the staller")
	}
	for v, m := range msC {
		if !Informed(m) {
			t.Errorf("staller vs CFlood: node %d uninformed", v)
		}
	}
}

func TestPFloodCompletesOnObliviousNetworks(t *testing.T) {
	const n = 40
	src := rng.New(50)
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.RandomConnected(n, n, src.Split(uint64(r)))
	})
	ms := machines(t, PFlood{}, n, 8, 4, map[string]int64{ExtraD: n})
	e := &dynet.Engine{Machines: ms, Adv: adv, Terminated: dynet.NodeDecided(0)}
	res, err := e.Run(40 * n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("PFlood never confirmed on oblivious random networks")
	}
	for v, m := range ms {
		if !Informed(m) {
			t.Errorf("node %d uninformed at confirmation", v)
		}
	}
}

func TestPFloodSendProbabilityExtremes(t *testing.T) {
	// p = 1000 (always send): only the source ever sends... every
	// informed node always sends, so it degenerates to CFlood behavior.
	const n = 10
	ms := machines(t, PFlood{}, n, 2, 9,
		map[string]int64{ExtraSendPermille: 1000, ExtraRounds: n})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Line(n)), Terminated: func(all []dynet.Machine) bool {
		for _, m := range all {
			if !Informed(m) {
				return false
			}
		}
		return true
	}}
	res, err := e.Run(3 * n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Rounds != n-1 {
		t.Errorf("always-send PFlood on a line informed everyone at round %d, want %d", res.Rounds, n-1)
	}
}

func BenchmarkCFloodLine(b *testing.B) {
	const n = 256
	g := graph.Line(n)
	for i := 0; i < b.N; i++ {
		inputs := make([]int64, n)
		inputs[0] = 1
		ms := dynet.NewMachines(CFlood{}, n, inputs, uint64(i), map[string]int64{ExtraD: n - 1})
		e := &dynet.Engine{Machines: ms, Adv: dynet.Static(g), Terminated: dynet.NodeDecided(0)}
		if _, err := e.Run(2 * n); err != nil {
			b.Fatal(err)
		}
	}
}
