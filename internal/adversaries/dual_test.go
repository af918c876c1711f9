package adversaries

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/rng"
)

func TestDualKeepsReliableEdges(t *testing.T) {
	const n = 12
	reliable := graph.Ring(n)
	var unreliable [][2]int
	for i := 0; i < n; i++ {
		unreliable = append(unreliable, [2]int{i, (i + n/2) % n})
	}
	adv := NewRandomDual(reliable, unreliable, 0.3, 7)
	actions := make([]dynet.Action, n)
	sawExtra := false
	for r := 1; r <= 60; r++ {
		g := adv.Topology(r, actions)
		if !g.Connected() {
			t.Fatalf("round %d: disconnected", r)
		}
		for i := 0; i < n; i++ {
			if !g.HasEdge(i, (i+1)%n) {
				t.Fatalf("round %d: reliable edge (%d,%d) missing", r, i, (i+1)%n)
			}
		}
		if g.M() > reliable.M() {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Error("no unreliable edge ever appeared at p=0.3")
	}
}

func TestDualAdaptiveChooser(t *testing.T) {
	// A chooser that adds unreliable edges only when node 0 receives.
	const n = 6
	reliable := graph.Line(n)
	unreliable := [][2]int{{0, n - 1}}
	adv := NewDual(reliable, unreliable, func(r int, actions []dynet.Action, present []bool) {
		present[0] = actions[0] == dynet.Receive
	})
	actions := make([]dynet.Action, n)
	if !adv.Topology(1, actions).HasEdge(0, n-1) {
		t.Error("edge missing while node 0 receives")
	}
	actions[0] = dynet.Send
	if adv.Topology(2, actions).HasEdge(0, n-1) {
		t.Error("edge present while node 0 sends")
	}
}

func TestDualNilChooserIsReliableOnly(t *testing.T) {
	reliable := graph.Star(5)
	adv := NewDual(reliable, [][2]int{{1, 2}}, nil)
	g := adv.Topology(1, make([]dynet.Action, 5))
	if g.HasEdge(1, 2) {
		t.Error("unreliable edge present with nil chooser")
	}
	if g.M() != reliable.M() {
		t.Error("edge count differs from reliable graph")
	}
}

// TestCFloodOnDualGraph runs the known-D CFLOOD protocol unchanged on the
// dual-graph model — the paper's "results extend without modification".
func TestCFloodOnDualGraph(t *testing.T) {
	const n = 24
	reliable := graph.Ring(n)
	var unreliable [][2]int
	src := rng.New(3)
	for i := 0; i < n; i++ {
		unreliable = append(unreliable, [2]int{src.Intn(n), src.Intn(n)})
	}
	for i := range unreliable {
		if unreliable[i][0] == unreliable[i][1] {
			unreliable[i][1] = (unreliable[i][1] + 1) % n
		}
	}
	adv := NewRandomDual(reliable, unreliable, 0.5, 11)
	inputs := make([]int64, n)
	inputs[0] = 1
	// The dynamic diameter is at most the reliable ring's diameter.
	d := reliable.StaticDiameter()
	ms := dynet.NewMachines(flood.CFlood{}, n, inputs, 5, map[string]int64{flood.ExtraD: int64(d)})
	e := &dynet.Engine{Machines: ms, Adv: adv, CheckConnectivity: true, Terminated: dynet.NodeDecided(0)}
	res, err := e.Run(3 * n)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, m := range ms {
		if !flood.Informed(m) {
			t.Errorf("node %d uninformed at confirmation", v)
		}
	}
}

func TestTIntervalStability(t *testing.T) {
	const n, T = 20, 5
	adv := NewTInterval(n, T, 0, 9)
	actions := make([]dynet.Action, n)
	var prev *graph.Graph
	for r := 1; r <= 3*T; r++ {
		g := adv.Topology(r, actions)
		if !g.Connected() {
			t.Fatalf("round %d disconnected", r)
		}
		if prev != nil && (r-1)%T != 0 {
			// Same window: identical stable graph (extra = 0).
			if g.M() != prev.M() {
				t.Fatalf("round %d: edge count changed mid-window", r)
			}
			for _, e := range prev.Edges() {
				if !g.HasEdge(e[0], e[1]) {
					t.Fatalf("round %d: stable edge %v vanished mid-window", r, e)
				}
			}
		}
		prev = g.Clone() // the adversary reuses g on the next call
	}
}

func TestTIntervalChangesAcrossWindows(t *testing.T) {
	const n, T = 30, 4
	adv := NewTInterval(n, T, 0, 2)
	actions := make([]dynet.Action, n)
	g1 := adv.Topology(1, actions).Clone() // reused on the next call
	g2 := adv.Topology(T+1, actions)
	same := true
	for _, e := range g1.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			same = false
		}
	}
	if same && g1.M() == g2.M() {
		t.Error("stable graph did not change across windows")
	}
}

func TestTIntervalWithExtras(t *testing.T) {
	const n, T = 16, 3
	adv := NewTInterval(n, T, 8, 13)
	actions := make([]dynet.Action, n)
	for r := 1; r <= 4*T; r++ {
		if !adv.Topology(r, actions).Connected() {
			t.Fatalf("round %d disconnected", r)
		}
	}
}
