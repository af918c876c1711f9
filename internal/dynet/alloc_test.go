package dynet

import (
	"testing"

	"dyndiam/internal/graph"
)

// pingMachine is an allocation-free test machine: even ids send a fixed
// payload on odd rounds and receive otherwise; odd ids do the opposite. It
// never decides, so the engine runs the full horizon.
type pingMachine struct {
	id      int
	payload []byte
	seen    int
}

func (m *pingMachine) Step(r int) (Action, Message) {
	if (r+m.id)%2 == 0 {
		return Send, Message{Payload: m.payload, NBits: 8 * len(m.payload)}
	}
	return Receive, Message{}
}

func (m *pingMachine) Deliver(r int, msgs []Message) { m.seen += len(msgs) }

func (m *pingMachine) Output() (int64, bool) { return 0, false }

func newPingEngine(n int) *Engine {
	ms := make([]Machine, n)
	payload := []byte{0xAB, 0xCD}
	for v := 0; v < n; v++ {
		ms[v] = &pingMachine{id: v, payload: payload}
	}
	return &Engine{
		Machines:          ms,
		Adv:               Static(graph.Ring(n)),
		CheckConnectivity: true,
	}
}

// TestEngineRoundZeroAllocs pins the zero-allocation claim: the round kernel's
// steady-state round — step, budget accounting, topology, connectivity
// check, inbox assembly, delivery, termination — performs zero
// allocations once the per-execution buffers exist. It drives the
// kernel's round over Engine.Run's in-process nodes, after newKernel
// allocated those buffers, under testing.AllocsPerRun.
func TestEngineRoundZeroAllocs(t *testing.T) {
	const n = 64
	e := newPingEngine(n)
	k := newKernel(e, (*engineNodes)(e), n, 0)

	r := 0
	round := func() {
		r++
		if _, err := k.round(r); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the inbox backing arrays: both parities of the ping schedule.
	round()
	round()

	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("steady-state round allocates %v, want 0", avg)
	}
}

// TestEngineRunAllocsDoNotScaleWithRounds is the end-to-end form of the same
// claim: with allocation-free machines and a static adversary, a 10x longer
// execution must not allocate more than a short one — every per-round cost
// has to come from reused buffers.
func TestEngineRunAllocsDoNotScaleWithRounds(t *testing.T) {
	const n = 48
	run := func(rounds int) float64 {
		// One fresh engine per measured run; Engines are single-use.
		return testing.AllocsPerRun(10, func() {
			e := newPingEngine(n)
			if _, err := e.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(20), run(200)
	// Identical fixed setup cost, zero marginal cost per extra round.
	if long > short {
		t.Errorf("allocs grew with rounds: %v at 20 rounds, %v at 200", short, long)
	}
}
