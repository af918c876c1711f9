package adversaries

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/protocols/flood"
)

func TestMobileAlwaysConnected(t *testing.T) {
	for _, radius := range []float64{0.15, 0.3, 0.6} {
		m := NewMobile(40, radius, 0.03, 7)
		actions := make([]dynet.Action, 40)
		for r := 1; r <= 80; r++ {
			g := m.Topology(r, actions)
			if !g.Connected() {
				t.Fatalf("radius %.2f round %d: disconnected despite patching", radius, r)
			}
		}
	}
}

func TestMobilePatchesSparseGraphs(t *testing.T) {
	// A tiny radius fragments constantly: the patch counter must grow.
	m := NewMobile(30, 0.05, 0.05, 3)
	actions := make([]dynet.Action, 30)
	for r := 1; r <= 30; r++ {
		m.Topology(r, actions)
	}
	if m.Patches == 0 {
		t.Error("no patches at radius 0.05 (expected heavy fragmentation)")
	}
	// A huge radius never fragments.
	big := NewMobile(30, 1.5, 0.05, 3)
	for r := 1; r <= 30; r++ {
		big.Topology(r, actions)
	}
	if big.Patches != 0 {
		t.Errorf("%d patches at radius 1.5 (complete graph expected)", big.Patches)
	}
}

func TestMobileTopologyChanges(t *testing.T) {
	m := NewMobile(20, 0.3, 0.08, 5)
	actions := make([]dynet.Action, 20)
	g1 := m.Topology(1, actions).Clone() // reused on the next call
	changed := false
	for r := 2; r <= 20 && !changed; r++ {
		g2 := m.Topology(r, actions)
		if g2.M() != g1.M() {
			changed = true
			break
		}
		for _, e := range g1.Edges() {
			if !g2.HasEdge(e[0], e[1]) {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Error("mobility never changed the topology")
	}
}

func TestCFloodOnMobileNetwork(t *testing.T) {
	const n = 32
	m := NewMobile(n, 0.25, 0.04, 11)
	inputs := make([]int64, n)
	inputs[0] = 1
	ms := dynet.NewMachines(flood.CFlood{}, n, inputs, 5,
		map[string]int64{flood.ExtraD: n - 1})
	e := &dynet.Engine{Machines: ms, Adv: m, CheckConnectivity: true, Terminated: dynet.NodeDecided(0)}
	res, err := e.Run(3 * n)
	if err != nil || !res.Done {
		t.Fatalf("CFLOOD failed on the mobile network: %v", err)
	}
	for v, mm := range ms {
		if !flood.Informed(mm) {
			t.Errorf("node %d uninformed at confirmation", v)
		}
	}
}

func TestComponentsHelper(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	comp := components(g)
	if len(comp) != 4 { // {0,1}, {2,3}, {4}, {5}
		t.Fatalf("got %d components, want 4", len(comp))
	}
}
