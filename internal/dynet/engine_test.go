package dynet

import (
	"strings"
	"testing"

	"dyndiam/internal/bitio"
	"dyndiam/internal/graph"
)

// relayMachine is a minimal test protocol: a node that holds the token
// sends it with probability 1/2 each round; other nodes receive. A node
// decides (outputs 1) as soon as it holds the token. Node inputs: Input=1
// marks the initial token holder.
type relayMachine struct {
	cfg     Config
	has     bool
	sending bool
}

type relayProtocol struct{}

func (relayProtocol) Name() string { return "test/relay" }

func (relayProtocol) NewMachine(cfg Config) Machine {
	return &relayMachine{cfg: cfg, has: cfg.Input == 1}
}

func (m *relayMachine) Step(r int) (Action, Message) {
	m.sending = m.has && m.cfg.Coins.At(m.cfg.ID, r).Bool()
	if !m.sending {
		return Receive, Message{}
	}
	var w bitio.Writer
	w.WriteUvarint(uint64(m.cfg.ID))
	return Send, Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *relayMachine) Deliver(r int, msgs []Message) {
	if len(msgs) > 0 {
		m.has = true
	}
}

func (m *relayMachine) Output() (int64, bool) {
	if m.has {
		return 1, true
	}
	return 0, false
}

// hogMachine violates the bit budget on purpose.
type hogMachine struct{ budget int }

type hogProtocol struct{}

func (hogProtocol) Name() string                { return "test/hog" }
func (hogProtocol) NewMachine(c Config) Machine { return &hogMachine{budget: c.Budget} }

func (m *hogMachine) Step(r int) (Action, Message) {
	nbits := m.budget + 1
	return Send, Message{Payload: make([]byte, (nbits+7)/8), NBits: nbits}
}
func (m *hogMachine) Deliver(int, []Message) {}
func (m *hogMachine) Output() (int64, bool)  { return 0, false }

func tokenInputs(n, holder int) []int64 {
	in := make([]int64, n)
	in[holder] = 1
	return in
}

func TestRelayFloodsLine(t *testing.T) {
	const n = 16
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 7, nil)
	e := &Engine{Machines: ms, Adv: Static(graph.Line(n)), CheckConnectivity: true}
	res, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("token did not reach all nodes in 2000 rounds")
	}
	for v, d := range res.Decided {
		if !d {
			t.Errorf("node %d undecided", v)
		}
	}
	if res.Rounds < n-1 {
		t.Errorf("token traversed a %d-line in %d rounds (< n-1)", n, res.Rounds)
	}
	if res.Messages == 0 || res.Bits == 0 {
		t.Error("no message accounting recorded")
	}
}

func TestBudgetViolationDetected(t *testing.T) {
	ms := NewMachines(hogProtocol{}, 4, nil, 1, nil)
	e := &Engine{Machines: ms, Adv: Static(graph.Line(4))}
	_, err := e.Run(5)
	if err == nil || !strings.Contains(err.Error(), "bit budget") {
		t.Fatalf("budget violation not detected: err = %v", err)
	}
}

func TestConnectivityViolationDetected(t *testing.T) {
	ms := NewMachines(relayProtocol{}, 4, tokenInputs(4, 0), 1, nil)
	e := &Engine{
		Machines:          ms,
		Adv:               Static(graph.New(4)), // edgeless: disconnected
		CheckConnectivity: true,
	}
	_, err := e.Run(5)
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("connectivity violation not detected: err = %v", err)
	}
}

func TestNodeDecidedPredicate(t *testing.T) {
	const n = 8
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 3, nil)
	e := &Engine{
		Machines:   ms,
		Adv:        Static(graph.Line(n)),
		Terminated: NodeDecided(1),
	}
	res, err := e.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("node 1 never decided")
	}
	// Node 1 is adjacent to the source; termination must come well before
	// the token can cross the whole line.
	if res.Decided[n-1] && res.Rounds < n-1 {
		t.Error("far end decided impossibly early")
	}
}

func TestTraceRecords(t *testing.T) {
	const n = 6
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 3, nil)
	tr := &Trace{KeepTopologies: true}
	e := &Engine{Machines: ms, Adv: Static(graph.Ring(n)), Trace: tr}
	res, err := e.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stats) != res.Rounds {
		t.Fatalf("trace has %d rounds, result says %d", len(tr.Stats), res.Rounds)
	}
	tops := tr.Topologies()
	for i, g := range tops {
		if g.M() != n {
			t.Errorf("round %d: recorded ring has %d edges, want %d", i+1, g.M(), n)
		}
	}
	totalBits := 0
	for _, st := range tr.Stats {
		totalBits += st.Bits
		if st.Senders < 0 || st.Senders > n {
			t.Errorf("round %d: %d senders", st.Round, st.Senders)
		}
	}
	if totalBits != res.Bits {
		t.Errorf("trace bits %d != result bits %d", totalBits, res.Bits)
	}
}

func TestBudgetScalesLogarithmically(t *testing.T) {
	if Budget(1000) >= Budget(1000000) {
		t.Error("budget must grow with N")
	}
	// Budget is Θ(log N): doubling N adds a constant number of bits.
	delta := Budget(2048) - Budget(1024)
	if delta != 8 {
		t.Errorf("budget delta per doubling = %d, want 8", delta)
	}
}

func TestEmptyEngine(t *testing.T) {
	e := &Engine{Adv: Static(graph.New(0))}
	res, err := e.Run(10)
	if err != nil || !res.Done {
		t.Fatalf("empty engine: res=%+v err=%v", res, err)
	}
}

func TestSendersDoNotReceive(t *testing.T) {
	// Two adjacent nodes that both always send must never receive and so
	// never learn the other's token.
	ms := []Machine{
		&alwaysSend{id: 0},
		&alwaysSend{id: 1},
	}
	e := &Engine{Machines: ms, Adv: Static(graph.Line(2))}
	if _, err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.(*alwaysSend).got {
			t.Errorf("node %d received a message while always sending", i)
		}
	}
}

type alwaysSend struct {
	id  int
	got bool
}

func (m *alwaysSend) Step(r int) (Action, Message) {
	return Send, Message{Payload: []byte{byte(m.id)}, NBits: 8}
}
func (m *alwaysSend) Deliver(int, []Message) { m.got = true }
func (m *alwaysSend) Output() (int64, bool)  { return 0, false }

func BenchmarkEngineSequentialLine(b *testing.B) {
	const n = 512
	g := graph.Line(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), uint64(i), nil)
		e := &Engine{Machines: ms, Adv: Static(g)}
		if _, err := e.Run(200); err != nil {
			b.Fatal(err)
		}
	}
}
