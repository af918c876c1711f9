package subnet

import (
	"testing"

	"dyndiam/internal/chains"
	"dyndiam/internal/disjcp"
	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// TestDualViewMatchesReference: the dual-graph expression of the Theorem 6
// composition produces, round for round and under arbitrary committed
// actions, exactly the reference adversary's topology.
func TestDualViewMatchesReference(t *testing.T) {
	src := rng.New(123)
	for trial := 0; trial < 8; trial++ {
		q := []int{5, 9, 13}[trial%3]
		var in disjcp.Instance
		if trial%2 == 0 {
			in = disjcp.RandomZero(2, q, 1, src)
		} else {
			in = disjcp.Random(2, q, src)
		}
		net, err := NewCFlood(in)
		if err != nil {
			t.Fatal(err)
		}
		dual := net.DualView()
		for r := 1; r <= 2*q; r++ {
			actions := make([]dynet.Action, net.N)
			for v := range actions {
				if src.Bool() {
					actions[v] = dynet.Send
				}
			}
			want := net.Topology(chains.Reference, r, actions)
			got := dual.Topology(r, actions)
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("q=%d r=%d: dual has %d/%d vertices/edges, reference %d/%d",
					q, r, got.N(), got.M(), want.N(), want.M())
			}
			for _, e := range want.Edges() {
				if !got.HasEdge(e[0], e[1]) {
					t.Fatalf("q=%d r=%d: dual missing edge %v", q, r, e)
				}
			}
		}
	}
}

// TestDualViewRunsCFlood drives an actual protocol execution through the
// dual-graph adversary — the same oracle binary the flat model runs.
func TestDualViewRunsCFlood(t *testing.T) {
	in := disjcp.RandomOne(2, 9, rng.New(5))
	net, err := NewCFlood(in)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]int64, net.N)
	inputs[net.Source()] = 1
	ms := dynet.NewMachines(dualTestProto{}, net.N, inputs, 3, nil)
	e := &dynet.Engine{Machines: ms, Adv: net.DualView(), CheckConnectivity: true,
		Terminated: func([]dynet.Machine) bool { return false }}
	if _, err := e.Run(3 * in.Q); err != nil {
		t.Fatal(err)
	}
}

// dualTestProto is a minimal always-send-token protocol local to this test
// (avoiding an import cycle with protocols/flood).
type dualTestProto struct{}

func (dualTestProto) Name() string { return "subnet/dual-test" }
func (dualTestProto) NewMachine(cfg dynet.Config) dynet.Machine {
	return &dualTestMachine{informed: cfg.Input == 1}
}

type dualTestMachine struct{ informed bool }

func (m *dualTestMachine) Step(r int) (dynet.Action, dynet.Message) {
	if m.informed {
		return dynet.Send, dynet.Message{Payload: []byte{1}, NBits: 1}
	}
	return dynet.Receive, dynet.Message{}
}
func (m *dualTestMachine) Deliver(r int, msgs []dynet.Message) {
	if len(msgs) > 0 {
		m.informed = true
	}
}
func (m *dualTestMachine) Output() (int64, bool) { return 0, m.informed }
