package flood

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// TestCFloodToleratesJunkSenders drops garbage-spewing machines into the
// network: decoders must ignore malformed payloads, and the protocol must
// still inform and confirm among the remaining nodes.
func TestCFloodToleratesJunkSenders(t *testing.T) {
	const n = 20
	inputs := make([]int64, n)
	inputs[0] = 9
	extra := map[string]int64{ExtraD: n - 1}
	ms := dynet.NewMachines(CFlood{}, n, inputs, 5, extra)
	cfgs := dynet.Configs(n, inputs, 5, extra)
	junkIDs := []int{7, 13}
	dynet.WithJunk(ms, cfgs, junkIDs...)

	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Complete(n)), Terminated: dynet.NodeDecided(0)}
	res, err := e.Run(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("source never confirmed amid junk senders")
	}
	junk := map[int]bool{7: true, 13: true}
	for v, m := range ms {
		if junk[v] {
			continue
		}
		if !Informed(m) {
			t.Errorf("honest node %d uninformed", v)
		}
		if out, ok := m.Output(); !ok || out != 9 {
			t.Errorf("honest node %d output (%d, %v), want (9, true) — junk corrupted the token?", v, out, ok)
		}
	}
}

// TestPFloodSurvivesJunkOnlyNeighbors fuzzes PFlood's decoder by
// surrounding receivers with junk senders only: arbitrary payloads must
// never panic the decoder or trip the engine's budget checks. (The model is
// not Byzantine: a random payload that happens to parse is a legal forged
// token, so no content assertion is made here — end-to-end correctness with
// junk present is covered by TestCFloodToleratesJunkSenders, where the real
// source's messages win deterministically.)
func TestPFloodSurvivesJunkOnlyNeighbors(t *testing.T) {
	const n = 6
	inputs := make([]int64, n)
	inputs[0] = 1
	ms := dynet.NewMachines(PFlood{}, n, inputs, 9, map[string]int64{ExtraRounds: 1 << 20})
	cfgs := dynet.Configs(n, inputs, 9, nil)
	dynet.WithJunk(ms, cfgs, 1, 2, 3, 4)
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Line(n)), Terminated: func([]dynet.Machine) bool { return false }}
	if _, err := e.Run(500); err != nil {
		t.Fatalf("junk payloads broke the run: %v", err)
	}
}
