package dynet_test

import (
	"testing"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/flood"
)

// TestFloodFastAllocsIndependentOfRounds pins the fast path's "no
// per-message allocation" claim end to end: against an allocation-free
// adversary, a run's heap allocations do not grow with the number of
// rounds executed (they cover only per-run setup — machines, buffers,
// the Result).
func TestFloodFastAllocsIndependentOfRounds(t *testing.T) {
	n := 64
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(v, v+1) // a line: flooding takes n-1 rounds
	}
	adv := dynet.AdversaryFunc(func(int, []dynet.Action) *graph.Graph { return g })
	inputs := make([]int64, n)
	inputs[0] = 7
	extra := map[string]int64{flood.ExtraD: 1 << 20} // source never confirms

	measure := func(maxRounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			e := &dynet.Engine{
				Machines: dynet.NewMachines(flood.CFlood{}, n, inputs, 1, extra),
				Adv:      adv,
			}
			res, ok, err := e.TryFloodFast(maxRounds, dynet.StopAll())
			if err != nil || !ok {
				t.Fatalf("fast path: ok=%v err=%v", ok, err)
			}
			if res.Done {
				t.Fatal("run terminated; rounds not exercised")
			}
		})
	}
	short, long := measure(50), measure(800)
	if long > short+2 {
		t.Fatalf("allocations grow with round count: %v at 50 rounds, %v at 800", short, long)
	}
}

// TestFloodFastObservedAllocsIndependentOfRounds pins the tentpole claim
// of round-aggregated observability: with an Obs ring and a Metrics
// registry attached (created once, outside the measured run, as a serving
// layer would), the fast path's per-run allocations still do not grow
// with the number of rounds — event emission into the preallocated ring
// is allocation-free even at stride 1.
func TestFloodFastObservedAllocsIndependentOfRounds(t *testing.T) {
	n := 64
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(v, v+1)
	}
	adv := dynet.AdversaryFunc(func(int, []dynet.Action) *graph.Graph { return g })
	inputs := make([]int64, n)
	inputs[0] = 7
	extra := map[string]int64{flood.ExtraD: 1 << 20} // source never confirms

	reg := obs.NewRegistry()
	// Warm the registry so the measured runs hit existing handles, the way
	// a long-lived serving process would.
	for _, name := range []string{
		"engine_rounds_total", "engine_messages_total", "engine_bits_total",
		"engine_floodfast_runs_total", "engine_floodfast_diff_ops_total",
	} {
		reg.Counter(name)
	}
	reg.Histogram("engine_round_senders", dynet.RoundHistBounds)
	reg.Histogram("engine_round_bits", dynet.RoundHistBounds)
	ring := obs.NewRing(4096)

	measure := func(maxRounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			ring.Reset()
			e := &dynet.Engine{
				Machines: dynet.NewMachines(flood.CFlood{}, n, inputs, 1, extra),
				Adv:      adv,
				Obs:      ring,
				Metrics:  reg,
			}
			res, ok, err := e.TryFloodFast(maxRounds, dynet.StopAll())
			if err != nil || !ok {
				t.Fatalf("fast path: ok=%v err=%v", ok, err)
			}
			if res.Done {
				t.Fatal("run terminated; rounds not exercised")
			}
		})
	}
	short, long := measure(50), measure(800)
	if long > short+2 {
		t.Fatalf("observed allocations grow with round count: %v at 50 rounds, %v at 800", short, long)
	}
}

// TestFloodFastDeltaIdleRoundAllocs pins the per-round allocation cost of
// delta rounds that start with every node informed. The fast path stops
// patching its snapshot there, so the only allocation left per round is
// DeltaChurn's round-keyed rng.Split; patching the snapshot would add the
// arena-row growth of EdgeDiff.Apply (about 4.5 allocs per round at this
// size).
func TestFloodFastDeltaIdleRoundAllocs(t *testing.T) {
	n := 4096
	inputs := make([]int64, n)
	inputs[0] = 7
	extra := map[string]int64{flood.ExtraD: 1 << 20} // source never confirms

	measure := func(maxRounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := &dynet.Engine{
				Machines: dynet.NewMachines(flood.CFlood{}, n, inputs, 1, extra),
				Adv:      adversaries.NewDeltaChurn(n, 512, 64, 9),
			}
			res, ok, err := e.TryFloodFast(maxRounds, dynet.StopAll())
			if err != nil || !ok {
				t.Fatalf("fast path: ok=%v err=%v", ok, err)
			}
			if res.Done {
				t.Fatal("run terminated; rounds not exercised")
			}
			for v, m := range e.Machines {
				if !flood.Informed(m) {
					t.Fatalf("node %d uninformed after %d rounds; the measured rounds are not all saturated", v, maxRounds)
				}
			}
		})
	}
	short, long := measure(100), measure(600)
	perRound := (long - short) / 500
	t.Logf("%.2f allocs per saturated delta round", perRound)
	if perRound > 1.25 {
		t.Fatalf("%.2f allocs per saturated delta round (%v at 100 rounds, %v at 600), want <= 1.25", perRound, short, long)
	}
}
