package dynet

import (
	"testing"

	"dyndiam/internal/graph"
)

func TestJunkStaysWithinBudget(t *testing.T) {
	cfgs := Configs(4, nil, 1, nil)
	j := NewJunk(cfgs[0], 900)
	for r := 1; r <= 500; r++ {
		act, msg := j.Step(r)
		if act == Send {
			if msg.NBits < 1 || msg.NBits > cfgs[0].Budget {
				t.Fatalf("round %d: junk nbits %d outside (0, %d]", r, msg.NBits, cfgs[0].Budget)
			}
			if len(msg.Payload) != (msg.NBits+7)/8 {
				t.Fatalf("round %d: payload length mismatch", r)
			}
		}
	}
	if _, ok := j.Output(); ok {
		t.Fatal("junk machine decided")
	}
}

func TestJunkProtocolRunsInEngine(t *testing.T) {
	const n = 8
	ms := NewMachines(JunkProtocol{}, n, nil, 3, nil)
	e := &Engine{Machines: ms, Adv: Static(graph.Ring(n)), Terminated: func([]Machine) bool { return false }}
	res, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Error("junk protocol sent nothing")
	}
}

func TestWithJunkReplaces(t *testing.T) {
	const n = 6
	inputs := make([]int64, n)
	ms := NewMachines(relayProtocol{}, n, inputs, 1, nil)
	cfgs := Configs(n, inputs, 1, nil)
	WithJunk(ms, cfgs, 2, 4)
	if _, ok := ms[2].(*Junk); !ok {
		t.Error("node 2 not replaced")
	}
	if _, ok := ms[4].(*Junk); !ok {
		t.Error("node 4 not replaced")
	}
	if _, ok := ms[1].(*Junk); ok {
		t.Error("node 1 replaced unexpectedly")
	}
}

func TestConfigsMatchNewMachines(t *testing.T) {
	// Machines built from Configs draw the same coins as NewMachines'.
	const n = 5
	inputs := []int64{1, 0, 0, 0, 0}
	cfgs := Configs(n, inputs, 42, nil)
	ms1 := NewMachines(relayProtocol{}, n, inputs, 42, nil)
	ms2 := make([]Machine, n)
	for v := 0; v < n; v++ {
		ms2[v] = relayProtocol{}.NewMachine(cfgs[v])
	}
	run := func(ms []Machine) *Result {
		e := &Engine{Machines: ms, Adv: Static(graph.Line(n))}
		res, err := e.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(ms1), run(ms2)
	if r1.Rounds != r2.Rounds || r1.Messages != r2.Messages || r1.Bits != r2.Bits {
		t.Fatalf("Configs-built machines diverged: %+v vs %+v", r1, r2)
	}
}
