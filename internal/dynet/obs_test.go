package dynet

import (
	"reflect"
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// TestEngineObserverEvents checks the engine's event stream: one
// RoundStart/RoundEnd pair per executed round, one Send per sending node
// with the message's bit size, and exactly one Decide per node, in the
// round its output first became available.
func TestEngineObserverEvents(t *testing.T) {
	const n = 8
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 7, nil)
	ring := obs.NewRing(1 << 16)
	reg := obs.NewRegistry()
	e := &Engine{Machines: ms, Adv: Static(graph.Line(n)), Obs: ring, Metrics: reg}
	res, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("flood did not finish")
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; size the ring for the run", ring.Dropped())
	}

	round := int32(0)
	inRound := false
	sends, bits := 0, 0
	decided := map[int32]int32{}
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.KindRoundStart:
			if inRound || ev.Round != round+1 {
				t.Fatalf("round %d started out of order (in=%v)", ev.Round, inRound)
			}
			round, inRound = ev.Round, true
		case obs.KindRoundEnd:
			if !inRound || ev.Round != round {
				t.Fatalf("round %d ended out of order", ev.Round)
			}
			inRound = false
		case obs.KindSend:
			if ev.Round != round {
				t.Fatalf("send stamped round %d during round %d", ev.Round, round)
			}
			sends++
			bits += int(ev.A)
		case obs.KindDecide:
			if _, dup := decided[ev.Node]; dup {
				t.Fatalf("node %d decided twice", ev.Node)
			}
			decided[ev.Node] = ev.Round
		}
	}
	if inRound {
		t.Fatal("last round never ended")
	}
	if int(round) != res.Rounds {
		t.Fatalf("observed %d rounds, result says %d", round, res.Rounds)
	}
	if sends != res.Messages || bits != res.Bits {
		t.Fatalf("observed %d sends/%d bits, result says %d/%d", sends, bits, res.Messages, res.Bits)
	}
	// Node 0 holds the token (and so has output) before round 1; Decide
	// events mark transitions observed during the run, so it emits none.
	if len(decided) != n-1 {
		t.Fatalf("observed %d decides, want %d", len(decided), n-1)
	}
	if _, ok := decided[0]; ok {
		t.Fatal("pre-decided node 0 must not emit a Decide event")
	}

	for _, m := range []struct {
		name string
		want int64
	}{
		{"engine_rounds_total", int64(res.Rounds)},
		{"engine_messages_total", int64(res.Messages)},
		{"engine_bits_total", int64(res.Bits)},
	} {
		if got := reg.Counter(m.name).Value(); got != m.want {
			t.Errorf("%s = %d want %d", m.name, got, m.want)
		}
	}
	var hist obs.MetricPoint
	for _, p := range reg.Snapshot() {
		if p.Name == "engine_round_senders" {
			hist = p
		}
	}
	if hist.Count != int64(res.Rounds) {
		t.Fatalf("engine_round_senders observed %d rounds, want %d", hist.Count, res.Rounds)
	}
}

// TestEngineObserverDeterministic pins that attaching an observer does not
// perturb the execution: same seed, same result, and two observed runs
// produce identical event streams.
func TestEngineObserverDeterministic(t *testing.T) {
	const n = 16
	run := func(ring *obs.Ring) (*Result, []obs.Event) {
		ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 2), 41, nil)
		e := &Engine{Machines: ms, Adv: Static(graph.Line(n))}
		if ring != nil {
			e.Obs = ring
		}
		res, err := e.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		if ring == nil {
			return res, nil
		}
		return res, ring.Events()
	}
	plain, _ := run(nil)
	obsA, evA := run(obs.NewRing(1 << 16))
	_, evB := run(obs.NewRing(1 << 16))
	if plain.Rounds != obsA.Rounds || plain.Messages != obsA.Messages || plain.Bits != obsA.Bits {
		t.Fatalf("observer changed the execution: plain=%+v observed=%+v", plain, obsA)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatal("two observed runs emitted different event streams")
	}
}

// TestEngineRunWithRingAllocsDoNotScaleWithRounds extends the nil-observer
// allocation pin: with a preallocated ring sink attached, Run's allocation
// count must still be independent of the round count (the per-Run decided
// slice is the only observer-path allocation).
func TestEngineRunWithRingAllocsDoNotScaleWithRounds(t *testing.T) {
	const n = 48
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := newPingEngine(n)
			e.Obs = obs.NewRing(1 << 10) // wraps mid-run; wrapping must not allocate
			if _, err := e.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(200)
	if long > short {
		t.Fatalf("observed Run allocations scale with rounds: %v allocs at 20 rounds, %v at 200", short, long)
	}
}
