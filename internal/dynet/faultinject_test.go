package dynet

import (
	"bytes"
	"reflect"
	"testing"

	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
)

// probeMachine records exactly what the engine does to it: Step calls per
// round, delivered messages (with private payload snapshots), and a
// running checksum. It always sends a two-byte payload, so every edge
// carries a message every round.
type probeMachine struct {
	id      int
	n       int
	steps   map[int]int // round -> Step calls
	inboxes map[int][][]byte
}

func newProbe(id, n int) *probeMachine {
	return &probeMachine{id: id, n: n, steps: map[int]int{}, inboxes: map[int][][]byte{}}
}

func (m *probeMachine) Step(r int) (Action, Message) {
	m.steps[r]++
	if (r+m.id)%2 == 0 {
		return Send, Message{Payload: []byte{0xAA, byte(m.id)}, NBits: 16}
	}
	return Receive, Message{}
}

func (m *probeMachine) Deliver(r int, msgs []Message) {
	for _, msg := range msgs {
		m.inboxes[r] = append(m.inboxes[r], append([]byte(nil), msg.Payload...))
	}
}

func (m *probeMachine) Output() (int64, bool) { return 0, false }

func probeEngine(n int, plan *faults.Plan) (*Engine, []*probeMachine) {
	probes := make([]*probeMachine, n)
	ms := make([]Machine, n)
	for v := 0; v < n; v++ {
		probes[v] = newProbe(v, n)
		ms[v] = probes[v]
	}
	e := &Engine{
		Machines:   ms,
		Adv:        Static(graph.Complete(n)),
		Plan:       plan,
		Terminated: func([]Machine) bool { return false },
	}
	return e, probes
}

func mustFaultPlan(t *testing.T, s faults.Spec) *faults.Plan {
	t.Helper()
	p, err := faults.NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultGoldenEquivalence is the zero-overhead golden test: an engine
// carrying an all-zero-rate Plan must behave byte-for-byte like one with
// no Plan at all — identical serialized traces, identical event streams,
// deep-equal metric registries.
func TestFaultGoldenEquivalence(t *testing.T) {
	const n, seed = 18, 77
	run := func(plan *faults.Plan) ([]byte, []obs.Event, []obs.MetricPoint, *Result) {
		ms := NewMachines(chaosProtocol{}, n, nil, seed, nil)
		src := rng.New(seed ^ 0xABCD)
		adv := AdversaryFunc(func(r int, _ []Action) *graph.Graph {
			return graph.RandomConnected(n, 7, src.Split(uint64(r)))
		})
		tr := &Trace{KeepTopologies: true}
		ring := obs.NewRing(1 << 16)
		reg := obs.NewRegistry()
		e := &Engine{Machines: ms, Adv: adv,
			CheckConnectivity: true, Trace: tr, Obs: ring, Metrics: reg, Plan: plan}
		res, err := e.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr, n); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), ring.Events(), reg.Snapshot(), res
	}
	trNil, evNil, regNil, resNil := run(nil)
	trZero, evZero, regZero, resZero := run(mustFaultPlan(t, faults.Spec{Seed: 123}))
	if !bytes.Equal(trNil, trZero) {
		t.Error("zero-rate plan changed the serialized trace")
	}
	if !reflect.DeepEqual(evNil, evZero) {
		t.Error("zero-rate plan changed the event stream")
	}
	if !reflect.DeepEqual(regNil, regZero) {
		t.Errorf("zero-rate plan changed the metric registry (%v vs %v)", regNil, regZero)
	}
	if !reflect.DeepEqual(resNil, resZero) {
		t.Error("zero-rate plan changed the result")
	}
}

// TestCrashFreezesNode pins the crash semantics: during a scheduled
// outage the node's Step is never called, it sends nothing, hears
// nothing, and messages addressed to it are lost; after rejoin it
// resumes from its frozen state.
func TestCrashFreezesNode(t *testing.T) {
	const n, down = 4, 2
	plan := mustFaultPlan(t, faults.Spec{
		Outages: []faults.Outage{{Node: down, From: 5, Until: 9}},
	})
	e, probes := probeEngine(n, plan)
	if _, err := e.Run(14); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 14; r++ {
		inWindow := r >= 5 && r <= 9
		if got := probes[down].steps[r]; (got == 0) != inWindow {
			t.Errorf("round %d: down node Step called %d times (window=%v)", r, got, inWindow)
		}
		if inWindow && len(probes[down].inboxes[r]) != 0 {
			t.Errorf("round %d: down node received %d messages", r, len(probes[down].inboxes[r]))
		}
		for v := 0; v < n; v++ {
			if v == down {
				continue
			}
			if got := probes[v].steps[r]; got != 1 {
				t.Errorf("round %d: up node %d stepped %d times", r, v, got)
			}
			// On even rounds node `down` (id 2) would send; receivers on
			// odd ids receive that round. During the window its payload
			// must be absent from every inbox.
			if inWindow {
				for _, payload := range probes[v].inboxes[r] {
					if payload[1] == byte(down) {
						t.Errorf("round %d: node %d received from down node", r, v)
					}
				}
			}
		}
	}
}

// TestDropAllSilencesDelivery: Drop=1 kills every message copy, while the
// engine still counts the sends (the sender committed and paid the bits).
func TestDropAllSilencesDelivery(t *testing.T) {
	e, probes := probeEngine(6, mustFaultPlan(t, faults.Spec{Drop: 1}))
	res, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("no messages sent at all")
	}
	for v, p := range probes {
		for r, msgs := range p.inboxes {
			if len(msgs) != 0 {
				t.Errorf("node %d round %d: received %d messages under Drop=1", v, r, len(msgs))
			}
		}
	}
}

// TestDupDeliversTwice: Dup=1 doubles every surviving copy, back to back.
func TestDupDeliversTwice(t *testing.T) {
	e, probes := probeEngine(6, mustFaultPlan(t, faults.Spec{Dup: 1}))
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	saw := false
	for v, p := range probes {
		for r, msgs := range p.inboxes {
			if len(msgs)%2 != 0 {
				t.Errorf("node %d round %d: odd inbox size %d under Dup=1", v, r, len(msgs))
			}
			for i := 0; i+1 < len(msgs); i += 2 {
				saw = true
				if !bytes.Equal(msgs[i], msgs[i+1]) {
					t.Errorf("node %d round %d: duplicate pair differs", v, r)
				}
			}
		}
	}
	if !saw {
		t.Fatal("no deliveries observed")
	}
}

// TestCorruptionCopiesPayload: with Corrupt=1 every receiver sees a
// one-bit-flipped copy, flips are per-receiver independent, and the
// sender's shared buffer is never mutated.
func TestCorruptionCopiesPayload(t *testing.T) {
	e, probes := probeEngine(6, mustFaultPlan(t, faults.Spec{Corrupt: 1}))
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for v, p := range probes {
		for r, msgs := range p.inboxes {
			for _, payload := range msgs {
				// Reconstruct the sender's original bytes: first byte 0xAA,
				// second the sender id; exactly one bit must differ.
				sender := -1
				for cand := 0; cand < 6; cand++ {
					orig := []byte{0xAA, byte(cand)}
					if diff := bitDiff(orig, payload); diff == 1 {
						sender = cand
						break
					}
				}
				if sender < 0 {
					t.Fatalf("node %d round %d: payload %x is not a one-bit corruption of any sender", v, r, payload)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no deliveries observed")
	}
}

func bitDiff(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	d := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			d += int(x & 1)
			x >>= 1
		}
	}
	return d
}

// TestEdgeCutAllSilencesDelivery: EdgeCut=1 removes every edge after the
// adversary's connectivity obligation is checked — the run proceeds
// (no connectivity error) but nothing is delivered.
func TestEdgeCutAllSilencesDelivery(t *testing.T) {
	e, probes := probeEngine(6, mustFaultPlan(t, faults.Spec{EdgeCut: 1}))
	e.CheckConnectivity = true
	if _, err := e.Run(10); err != nil {
		t.Fatalf("edge cuts must not trip the adversary connectivity check: %v", err)
	}
	for v, p := range probes {
		for r, msgs := range p.inboxes {
			if len(msgs) != 0 {
				t.Errorf("node %d round %d: received %d messages under EdgeCut=1", v, r, len(msgs))
			}
		}
	}
}

// TestFaultCountersMatchEvents: every injected fault increments its
// counter and emits one KindFault event with the matching name.
func TestFaultCountersMatchEvents(t *testing.T) {
	plan := mustFaultPlan(t, faults.Spec{
		Seed: 9, Drop: 0.2, Dup: 0.2, Corrupt: 0.2, Crash: 0.05, MeanDown: 3, EdgeCut: 0.1,
	})
	const n = 8
	ring := obs.NewRing(1 << 18)
	reg := obs.NewRegistry()
	e, _ := probeEngine(n, plan)
	e.Obs = ring
	e.Metrics = reg
	if _, err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	events := map[string]int64{}
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindFault {
			events[ev.Name.String()]++
		}
	}
	for counter, event := range map[string]string{
		"faults_dropped_total":    "drop",
		"faults_duplicated_total": "dup",
		"faults_corrupted_total":  "corrupt",
		"faults_crashes_total":    "crash",
		"faults_rejoins_total":    "rejoin",
		"faults_edges_cut_total":  "edge_cut",
	} {
		if got, want := reg.Counter(counter).Value(), events[event]; got != want {
			t.Errorf("%s = %d but %d %q events", counter, got, want, event)
		}
	}
	if reg.Counter("faults_dropped_total").Value() == 0 {
		t.Error("no drops injected at rate 0.2 over 60 complete-graph rounds")
	}
	if reg.Counter("faults_crashes_total").Value() == 0 {
		t.Error("no crashes injected at rate 0.05 over 60 rounds")
	}
	if down := reg.Counter("faults_down_node_rounds_total").Value(); down < reg.Counter("faults_crashes_total").Value() {
		t.Errorf("down-node-rounds %d < crashes %d", down, reg.Counter("faults_crashes_total").Value())
	}
}
