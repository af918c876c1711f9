package consensus

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// TestKnownDConsensusToleratesJunk: junk senders must not crash the decoder
// or wedge honest nodes; honest nodes still agree (the model is not
// Byzantine — a random payload that parses is a legal message, so the
// checked property is termination + agreement among honest nodes).
func TestKnownDConsensusToleratesJunk(t *testing.T) {
	const n = 16
	inputs := make([]int64, n)
	for v := range inputs {
		inputs[v] = int64(v % 2)
	}
	extra := map[string]int64{ExtraD: 2}
	ms := dynet.NewMachines(KnownD{}, n, inputs, 8, extra)
	cfgs := dynet.Configs(n, inputs, 8, extra)
	junk := map[int]bool{4: true, 9: true}
	dynet.WithJunk(ms, cfgs, 4, 9)

	honestDecided := func(all []dynet.Machine) bool {
		for v, m := range all {
			if junk[v] {
				continue
			}
			if _, ok := m.Output(); !ok {
				return false
			}
		}
		return true
	}
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Complete(n)), Terminated: honestDecided}
	res, err := e.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("honest nodes never decided amid junk senders")
	}
	var first int64 = -1
	for v, m := range ms {
		if junk[v] {
			continue
		}
		out, _ := m.Output()
		if first == -1 {
			first = out
		} else if out != first {
			t.Errorf("node %d decided %d, others %d", v, out, first)
		}
	}
}

// TestKnownDConsensusTruncatedMessages feeds a machine raw truncated bytes
// directly: the decoder must skip them without state damage.
func TestKnownDConsensusTruncatedMessages(t *testing.T) {
	m := KnownD{}.NewMachine(dynet.Config{
		N: 8, ID: 3, Input: 1,
		Coins:  dynet.Configs(8, nil, 1, nil)[3].Coins,
		Budget: dynet.Budget(8),
		Extra:  map[string]int64{ExtraD: 3},
	})
	m.Deliver(1, []dynet.Message{
		{From: 0, Payload: nil, NBits: 0},
		{From: 1, Payload: []byte{0xFF}, NBits: 3},
	})
	// The machine must still run and decide its own value eventually.
	for r := 1; r < 500; r++ {
		m.Step(r)
	}
	if out, ok := m.Output(); !ok || out != 1 {
		t.Fatalf("machine wedged after malformed input: (%d, %v)", out, ok)
	}
}
