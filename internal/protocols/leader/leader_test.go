package leader

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func runLeader(t *testing.T, n int, adv dynet.Adversary, extra map[string]int64, seed uint64, maxRounds int) (*dynet.Result, []dynet.Machine) {
	t.Helper()
	inputs := make([]int64, n)
	for v := range inputs {
		inputs[v] = int64(v % 2)
	}
	ms := dynet.NewMachines(Protocol{}, n, inputs, seed, extra)
	e := &dynet.Engine{Machines: ms, Adv: adv}
	res, err := e.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return res, ms
}

func TestElectsMaxOnStar(t *testing.T) {
	const n = 16
	res, _ := runLeader(t, n, dynet.Static(graph.Star(n)), nil, 1, 400000)
	if !res.Done {
		t.Fatal("leader election did not terminate")
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v] != n-1 {
			t.Errorf("node %d elected %d, want %d", v, res.Outputs[v], n-1)
		}
	}
}

func TestElectsMaxOnLine(t *testing.T) {
	const n = 24
	res, _ := runLeader(t, n, dynet.Static(graph.Line(n)), nil, 7, 2000000)
	if !res.Done {
		t.Fatal("leader election did not terminate on the line")
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v] != n-1 {
			t.Errorf("node %d elected %d, want %d", v, res.Outputs[v], n-1)
		}
	}
}

func TestUnknownDWithApproximateN(t *testing.T) {
	// N' = 0.8N with c = 0.1 satisfies |N'-N|/N = 0.2 <= 1/3 - 0.1.
	const n = 20
	extra := map[string]int64{
		ExtraNPrime:    int64(0.8 * n),
		ExtraCPermille: 100,
	}
	src := rng.New(33)
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.RandomConnected(n, n, src.Split(uint64(r)))
	})
	res, _ := runLeader(t, n, adv, extra, 5, 1000000)
	if !res.Done {
		t.Fatal("did not terminate with approximate N'")
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v] != n-1 {
			t.Errorf("node %d elected %d, want %d", v, res.Outputs[v], n-1)
		}
	}
}

func TestDynamicTopologyElection(t *testing.T) {
	// Changing low-diameter topology every round.
	const n = 32
	src := rng.New(8)
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.BoundedDiameterRandom(n, 6, n/2, src.Split(uint64(r)))
	})
	res, _ := runLeader(t, n, adv, nil, 11, 1000000)
	if !res.Done {
		t.Fatal("did not terminate on dynamic topology")
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v] != n-1 {
			t.Errorf("node %d elected %d, want %d", v, res.Outputs[v], n-1)
		}
	}
}

// TestTimeScalesWithDiameterNotN is the Theorem 8 shape: with unknown D but
// a good N', the election on a *small-diameter* network must terminate in
// rounds proportional to D·polylog(N), far below N rounds when D << N.
func TestTimeScalesWithDiameterNotN(t *testing.T) {
	const n = 48
	res, _ := runLeader(t, n, dynet.Static(graph.Star(n)), nil, 2, 1000000)
	if !res.Done {
		t.Fatal("did not terminate")
	}
	// Star diameter is 2. The protocol should finish within early phases,
	// orders of magnitude below the pessimistic Θ(N · polylog) horizon.
	// Loose sanity cap: k·(alpha+beta)·polylog with the final D' small.
	k := 6 * 7 // KFor(48)
	cap := 40 * k * 10
	if res.Rounds > cap {
		t.Errorf("star election took %d rounds, want < %d (diameter-scaled)", res.Rounds, cap)
	}
}

// TestTwoStageLockingAblation: disabling the COUNT1 pre-check (the paper's
// explicit design point) produces rolled-back candidacies on a
// high-diameter network, while the two-stage protocol avoids them.
func TestTwoStageLockingAblation(t *testing.T) {
	const n = 32
	adv := graph.Line(n)

	failures := func(skip bool) int {
		extra := map[string]int64{}
		if skip {
			extra[ExtraSkipStage1] = 1
		}
		res, ms := runLeader(t, n, dynet.Static(adv), extra, 13, 3000000)
		if !res.Done {
			t.Fatal("ablation run did not terminate")
		}
		total := 0
		for _, m := range ms {
			total += FailedCandidacies(m)
		}
		return total
	}

	withStage1 := failures(false)
	withoutStage1 := failures(true)
	if withoutStage1 == 0 {
		t.Error("skip-stage1 ablation produced no failed candidacies on a line (expected rollbacks)")
	}
	if withStage1 > withoutStage1 {
		t.Errorf("two-stage locking produced more rollbacks (%d) than the ablation (%d)",
			withStage1, withoutStage1)
	}
}

func TestLockKeyRoundTrip(t *testing.T) {
	for _, k := range []lockKey{{0, 0}, {5, 3}, {1 << 15, 1000}, {42, 1<<20 - 1}} {
		if got := decodeLockKey(k.encode()); got != k {
			t.Errorf("decode(encode(%v)) = %v", k, got)
		}
	}
}

func TestScheduleLocate(t *testing.T) {
	m := &machine{alpha: 2, beta: 1, k: 4, w: 3}
	// Phase 0: D'=1, ls = 2*(1+3) = 8, lc = 1*4*(1+3) = 16; total 48.
	cases := []struct {
		r               int
		phase, sub, idx int
	}{
		{1, 0, subSpread, 0},
		{8, 0, subSpread, 7},
		{9, 0, subCount1, 0},
		{24, 0, subCount1, 15},
		{25, 0, subLock, 0},
		{32, 0, subLock, 7},
		{33, 0, subCount2, 0},
		{48, 0, subCount2, 15},
		{49, 1, subSpread, 0}, // phase 1 begins
	}
	for _, c := range cases {
		p, s, i := m.locate(c.r)
		if p != c.phase || s != c.sub || i != c.idx {
			t.Errorf("locate(%d) = (%d, %d, %d), want (%d, %d, %d)",
				c.r, p, s, i, c.phase, c.sub, c.idx)
		}
	}
}

func TestMessagesWithinBudget(t *testing.T) {
	const n = 64
	inputs := make([]int64, n)
	ms := dynet.NewMachines(Protocol{}, n, inputs, 3, nil)
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	// The engine enforces the budget; any oversized message errors out.
	if _, err := e.Run(20000); err != nil {
		t.Fatalf("budget violation or engine error: %v", err)
	}
}

func BenchmarkLeaderElectionStar(b *testing.B) {
	const n = 32
	for i := 0; i < b.N; i++ {
		inputs := make([]int64, n)
		ms := dynet.NewMachines(Protocol{}, n, inputs, uint64(i), nil)
		e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Star(n))}
		res, err := e.Run(500000)
		if err != nil || !res.Done {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func TestMachineStats(t *testing.T) {
	const n = 12
	ms := dynet.NewMachines(Protocol{}, n, make([]int64, n), 5, nil)
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Star(n))}
	res, err := e.Run(500000)
	if err != nil || !res.Done {
		t.Fatalf("res=%v err=%v", res, err)
	}
	winner, wok := MachineStats(ms[n-1])
	if !wok {
		t.Fatal("stats extraction failed")
	}
	if winner.Candidacies < 1 {
		t.Error("winner recorded no candidacy")
	}
	if winner.Failures != 0 {
		t.Errorf("winner rolled back %d candidacies on a star", winner.Failures)
	}
	if winner.Phases < 1 {
		t.Error("no phases recorded")
	}
	// Every node accepted the winner's lock (or its own, for the winner).
	totalLocks := 0
	for _, m := range ms {
		st, ok := MachineStats(m)
		if !ok {
			t.Fatal("foreign machine")
		}
		totalLocks += st.LocksAccepted
	}
	if totalLocks < n/2 {
		t.Errorf("only %d locks accepted across %d nodes", totalLocks, n)
	}
	if _, ok := MachineStats(dynet.NewJunk(dynet.Configs(1, nil, 1, nil)[0], 0)); ok {
		t.Error("stats extracted from a foreign machine type")
	}
}

func TestElectsOnRotatingStar(t *testing.T) {
	// The rotating star has per-round diameter 2 but dynamic diameter
	// n-1: the protocol's doubling D' must climb to ~n before the counts
	// complete, and the election must still be correct.
	const n = 10
	adv := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		g := graph.New(n)
		center := r % n
		for v := 0; v < n; v++ {
			if v != center {
				g.AddEdge(center, v)
			}
		}
		return g
	})
	res, _ := runLeader(t, n, adv, nil, 3, 5000000)
	if !res.Done {
		t.Fatal("no termination on the rotating star")
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v] != n-1 {
			t.Errorf("node %d elected %d, want %d", v, res.Outputs[v], n-1)
		}
	}
}
