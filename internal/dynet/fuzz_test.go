package dynet

import (
	"testing"
	"testing/quick"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// chaosMachine drives the engine with protocol-shaped randomness: random
// send/receive choices, random (valid) payload sizes, decisions at a random
// round. It exists to fuzz engine invariants, not to compute anything.
type chaosMachine struct {
	cfg      Config
	coins    *rng.Source
	decideAt int
	decided  bool
	inboxes  int
}

type chaosProtocol struct{}

func (chaosProtocol) Name() string { return "test/chaos" }

func (chaosProtocol) NewMachine(cfg Config) Machine {
	coins := cfg.Coins.Split('c', 'h')
	return &chaosMachine{cfg: cfg, coins: coins, decideAt: 1 + coins.Intn(200)}
}

func (m *chaosMachine) Step(r int) (Action, Message) {
	if r >= m.decideAt {
		m.decided = true
	}
	if m.coins.Bool() {
		return Receive, Message{}
	}
	nbits := 1 + m.coins.Intn(m.cfg.Budget)
	payload := make([]byte, (nbits+7)/8)
	for i := range payload {
		payload[i] = byte(m.coins.Uint64())
	}
	return Send, Message{Payload: payload, NBits: nbits}
}

func (m *chaosMachine) Deliver(r int, msgs []Message) {
	m.inboxes += len(msgs)
	for _, msg := range msgs {
		if msg.From < 0 || msg.From >= m.cfg.N {
			panic("chaos: impossible sender id")
		}
		if msg.NBits > m.cfg.Budget {
			panic("chaos: over-budget message delivered")
		}
	}
}

func (m *chaosMachine) Output() (int64, bool) { return int64(m.inboxes), m.decided }

// checkEngineDeterminism drives arbitrary machines on arbitrary dynamic
// topologies twice from the same seeds and reports whether the two
// executions are bit-identical. The chaos machines additionally panic if
// the engine ever delivers over-budget or mis-attributed messages.
func checkEngineDeterminism(t *testing.T, seed uint64, nRaw, extraRaw uint8) bool {
	t.Helper()
	n := int(nRaw%40) + 2
	extra := int(extraRaw % 60)
	run := func() *Result {
		ms := NewMachines(chaosProtocol{}, n, nil, seed, nil)
		src := rng.New(seed ^ 0xABCD)
		adv := AdversaryFunc(func(r int, _ []Action) *graph.Graph {
			return graph.RandomConnected(n, extra, src.Split(uint64(r)))
		})
		e := &Engine{Machines: ms, Adv: adv, CheckConnectivity: true}
		res, err := e.Run(250)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	b := run()
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Bits != b.Bits || a.Done != b.Done {
		return false
	}
	for v := range a.Outputs {
		if a.Outputs[v] != b.Outputs[v] || a.Decided[v] != b.Decided[v] {
			return false
		}
	}
	return true
}

// checkEngineAccounting verifies that message and bit counters equal the
// sum over rounds of senders' payloads, cross-checked through a trace.
func checkEngineAccounting(t *testing.T, seed uint64, nRaw uint8) {
	t.Helper()
	n := int(nRaw%40) + 3
	ms := NewMachines(chaosProtocol{}, n, nil, seed, nil)
	tr := &Trace{}
	e := &Engine{Machines: ms, Adv: Static(graph.Ring(n)), Trace: tr}
	res, err := e.Run(150)
	if err != nil {
		t.Fatal(err)
	}
	var senders, bits int
	for _, st := range tr.Stats {
		senders += st.Senders
		bits += st.Bits
	}
	if senders != res.Messages || bits != res.Bits {
		t.Fatalf("seed %d n %d: trace (%d msgs, %d bits) != result (%d, %d)",
			seed, n, senders, bits, res.Messages, res.Bits)
	}
}

// TestEngineFuzzDeterminism is the quick-check entry point for the
// run-to-run determinism property.
func TestEngineFuzzDeterminism(t *testing.T) {
	f := func(seed uint64, nRaw uint8, extraRaw uint8) bool {
		return checkEngineDeterminism(t, seed, nRaw, extraRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEngineFuzzAccounting spot-checks the accounting property on fixed
// seeds (the fuzz target explores further).
func TestEngineFuzzAccounting(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		checkEngineAccounting(t, seed, 17) // nRaw 17 -> n = 20, the historical size
	}
}

// FuzzEngineDeterminism is the native fuzz target for the determinism
// property; CI runs it for a short smoke interval on every push.
func FuzzEngineDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(5))
	f.Add(uint64(0xDEAD), uint8(39), uint8(59))
	f.Add(uint64(42), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, extraRaw uint8) {
		if !checkEngineDeterminism(t, seed, nRaw, extraRaw) {
			t.Errorf("seed %d nRaw %d extraRaw %d: two executions from the same seeds diverge", seed, nRaw, extraRaw)
		}
	})
}

// FuzzEngineAccounting is the native fuzz target for trace/result
// accounting consistency.
func FuzzEngineAccounting(f *testing.F) {
	f.Add(uint64(0), uint8(17))
	f.Add(uint64(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		checkEngineAccounting(t, seed, nRaw)
	})
}
