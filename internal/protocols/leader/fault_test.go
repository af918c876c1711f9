package leader

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// TestLeaderToleratesJunkSenders verifies the Section 7 machine's decoders
// against arbitrary payloads: junk neighbors must not crash parsing or wedge
// the election. Note the model is not Byzantine: random bits can parse as a
// syntactically valid (forged) leader announcement, and honest nodes will
// believe it — so the property checked is termination plus *agreement*
// among honest nodes, not that the true maximum id wins. The junk nodes
// never decide, so termination is checked over honest nodes only.
func TestLeaderToleratesJunkSenders(t *testing.T) {
	const n = 18
	inputs := make([]int64, n)
	ms := dynet.NewMachines(Protocol{}, n, inputs, 21, nil)
	cfgs := dynet.Configs(n, inputs, 21, nil)
	junkIDs := map[int]bool{3: true, 11: true}
	dynet.WithJunk(ms, cfgs, 3, 11)

	honestDecided := func(all []dynet.Machine) bool {
		for v, m := range all {
			if junkIDs[v] {
				continue
			}
			if _, ok := m.Output(); !ok {
				return false
			}
		}
		return true
	}
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Complete(n)), Terminated: honestDecided}
	res, err := e.Run(2000000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("honest nodes never elected a leader amid junk senders")
	}
	var first int64 = -1
	for v, m := range ms {
		if junkIDs[v] {
			continue
		}
		out, _ := m.Output()
		if first == -1 {
			first = out
		} else if out != first {
			t.Errorf("honest node %d elected %d, others elected %d (agreement broken)", v, out, first)
		}
	}
}
