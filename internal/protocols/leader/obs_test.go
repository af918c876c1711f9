package leader

import (
	"bytes"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// TestObservedRunEmitsPhaseAndLockEvents runs a full election with both the
// engine's and the protocol's sinks attached and checks the event stream
// carries the phase/lock story the ISSUE promises: subphase PhaseEnter
// spans, at least one candidacy, at least one lock acquisition, and a
// leader_declared marker — and that the stream exports to every format.
func TestObservedRunEmitsPhaseAndLockEvents(t *testing.T) {
	const n = 16
	inputs := make([]int64, n)
	ring := obs.NewRing(1 << 18)
	ms := dynet.NewMachines(Protocol{Obs: ring}, n, inputs, 1, nil)
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Star(n)), Obs: ring}
	res, err := e.Run(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("election did not terminate")
	}

	counts := map[obs.Kind]int{}
	subSeen := map[string]bool{}
	leaderDeclared := false
	for _, ev := range ring.Events() {
		counts[ev.Kind]++
		if ev.Kind == obs.KindPhaseEnter {
			subSeen[ev.Name.String()] = true
		}
		if ev.Kind == obs.KindCustom && ev.Name == keyLeader {
			leaderDeclared = true
		}
	}
	for _, sub := range []string{"spread", "count1", "lock", "count2"} {
		if !subSeen[sub] {
			t.Errorf("no PhaseEnter for subphase %q", sub)
		}
	}
	if counts[obs.KindLockAcquire] == 0 {
		t.Error("no LockAcquire events in a completed election")
	}
	if c := counts[obs.KindCustom]; c == 0 {
		t.Error("no candidacy/leader markers")
	}
	if !leaderDeclared {
		t.Error("winning candidate did not emit leader_declared")
	}
	if counts[obs.KindRoundStart] == 0 || counts[obs.KindSend] == 0 {
		t.Error("engine events missing from the merged stream")
	}

	// The stream must survive every exporter (the ring dropped nothing
	// only if sized generously; drops are fine for exporting).
	events := ring.Events()
	var jsonl bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, events); err != nil {
		t.Fatalf("jsonl export: %v", err)
	}
	back, err := obs.ReadJSONL(&jsonl)
	if err != nil || len(back) != len(events) {
		t.Fatalf("jsonl reimport: %v (%d of %d events)", err, len(back), len(events))
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, events); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if trace.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}
