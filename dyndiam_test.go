package dyndiam_test

import (
	"strings"
	"testing"

	"dyndiam"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring the
// doc.go quick start.
func TestFacadeQuickstart(t *testing.T) {
	const n = 32
	adv := dyndiam.RandomConnectedAdversary(n, n/2, 1)
	inputs := make([]int64, n)
	inputs[0] = 42
	ms := dyndiam.NewMachines(dyndiam.CFlood{}, n, inputs, 7,
		map[string]int64{dyndiam.ExtraDiameter: n - 1})
	eng := &dyndiam.Engine{Machines: ms, Adv: adv, Terminated: dyndiam.NodeDecided(0)}
	res, err := eng.Run(4 * n)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, m := range ms {
		if !dyndiam.Informed(m) {
			t.Errorf("node %d uninformed", v)
		}
	}
}

func TestFacadeDiameterAndGraphs(t *testing.T) {
	graphs := make([]*dyndiam.Graph, 30)
	for i := range graphs {
		graphs[i] = dyndiam.Line(10)
	}
	d, exact := dyndiam.DynamicDiameter(graphs)
	if !exact || d != 9 {
		t.Errorf("line diameter = %d (exact %v), want 9", d, exact)
	}
	if dyndiam.Star(5).StaticDiameter() != 2 {
		t.Error("star diameter broken through facade")
	}
	if dyndiam.Budget(1024) <= 0 {
		t.Error("budget not positive")
	}
}

func TestFacadeFigures(t *testing.T) {
	f1, err := dyndiam.Figure1()
	if err != nil || !strings.Contains(f1, "|0_0") {
		t.Errorf("Figure1 via facade broken: %v", err)
	}
}

func TestFacadeLeaderElection(t *testing.T) {
	const n = 16
	ms := dyndiam.NewMachines(dyndiam.LeaderElect{}, n, make([]int64, n), 3, nil)
	eng := &dyndiam.Engine{Machines: ms, Adv: dyndiam.StaticAdversary(dyndiam.Star(n))}
	res, err := eng.Run(500000)
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, out := range res.Outputs {
		if out != n-1 {
			t.Errorf("node %d elected %d", v, out)
		}
	}
}
