package hearfrom

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// Exact solves HEAR-FROM-N-NODES with known N by literal causal
// bookkeeping rather than estimation: every node maintains the set of node
// ids it has heard from (initially itself) and gossips one id per message,
// rotating through its set. Receiving an id w from a neighbor u is a valid
// "heard from w" event: w causally influenced u, and u's message influences
// the receiver, so w ⇝ receiver. A node outputs N exactly when its set is
// complete — it can never output early, making Exact the ground-truth
// auditor for the estimation-based HearFrom.
//
// The set costs O(N) node memory (allowed: the model bounds messages, not
// state) and messages carry one id — O(log N) bits. Completion needs every
// id to traverse the network, which on low-diameter topologies takes
// O(N + D log N)-ish rounds; the known-D upper bound of the paper uses the
// estimation route instead, trading exactness for O(log N) flooding rounds
// (see HearFrom).
type Exact struct{}

// Name implements dynet.Protocol.
func (Exact) Name() string { return "hearfrom/exact" }

// NewMachine implements dynet.Protocol.
func (Exact) NewMachine(cfg dynet.Config) dynet.Machine {
	m := &exactMachine{
		cfg:   cfg,
		heard: make(map[int]bool, cfg.N),
		coins: cfg.Coins.Split('h', 'x'),
	}
	m.heard[cfg.ID] = true
	m.order = []int{cfg.ID}
	return m
}

type exactMachine struct {
	cfg   dynet.Config
	heard map[int]bool
	order []int // rotation order for gossip
	next  int
	coins *rng.Source
	wr    bitio.Writer // encodes every payload this machine sends
}

func (m *exactMachine) Step(r int) (dynet.Action, dynet.Message) {
	if !m.coins.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	id := m.order[m.next%len(m.order)]
	m.next++
	w := &m.wr
	w.Next()
	w.WriteUvarint(uint64(id))
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *exactMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		v, err := rd.ReadUvarint()
		if err != nil {
			continue
		}
		id := int(v)
		if id < 0 || id >= m.cfg.N || m.heard[id] {
			continue
		}
		m.heard[id] = true
		m.order = append(m.order, id)
		// The direct sender also causally influenced us.
		if msg.From >= 0 && msg.From < m.cfg.N && !m.heard[msg.From] {
			m.heard[msg.From] = true
			m.order = append(m.order, msg.From)
		}
	}
}

func (m *exactMachine) Output() (int64, bool) {
	if len(m.heard) == m.cfg.N {
		return int64(m.cfg.N), true
	}
	return 0, false
}

// HeardCount reports how many nodes an Exact machine has heard from — used
// by tests to audit partial progress.
func HeardCount(mm dynet.Machine) int {
	m, ok := mm.(*exactMachine)
	if !ok {
		return 0
	}
	return len(m.heard)
}
