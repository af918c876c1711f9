// Package consensus implements the CONSENSUS problem: every node holds a
// binary input, and all nodes must decide a common value that some node
// held (termination, agreement, validity).
//
// Two protocols are provided:
//
//   - KnownD: the trivial known-diameter protocol. Nodes gossip the pair
//     (largest id seen, that node's input) for a fixed horizon of
//     Θ((D + log N) · log N) rounds and decide the accompanying value —
//     O(log N) flooding rounds, matching the paper's known-D upper bound.
//   - ViaLeader: the reduction CONSENSUS <= LEADERELECT the paper uses in
//     both directions: run the Section 7 leader-election protocol with the
//     leader's input piggybacked, and decide the elected leader's input.
//     This needs no knowledge of D, only the N' estimate of Theorem 8.
//
// Validity holds structurally: the decided value is always some node's
// input. Agreement relies on the gossip horizon (KnownD) or on leader
// uniqueness (ViaLeader), both w.h.p. on the adversary families the
// experiments run (see DESIGN.md on adaptive vs oblivious adversaries).
package consensus

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/protocols/leader"
	"dyndiam/internal/rng"
)

// Extra keys read by KnownD.
const (
	// ExtraD is the known diameter bound.
	ExtraD = "D"
	// ExtraRounds overrides the gossip horizon (default 6·(D+w)·w/4... —
	// see NewMachine; Θ((D+log N)·log N)).
	ExtraRounds = "rounds"
)

// KnownD is the trivial consensus protocol for a known diameter bound.
type KnownD struct{}

// Name implements dynet.Protocol.
func (KnownD) Name() string { return "consensus/known-d" }

// NewMachine implements dynet.Protocol.
func (KnownD) NewMachine(cfg dynet.Config) dynet.Machine {
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(3*(d+w)*w)))
	return &knownDMachine{
		cfg:    cfg,
		rounds: rounds,
		maxID:  cfg.ID,
		val:    cfg.Input,
		coins:  cfg.Coins.Split('c', 'o', 'n'),
	}
}

type knownDMachine struct {
	cfg    dynet.Config
	rounds int
	maxID  int
	val    int64
	coins  *rng.Source
	done   bool
	out    int64
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *knownDMachine) Step(r int) (dynet.Action, dynet.Message) {
	if r >= m.rounds && !m.done {
		m.done = true
		m.out = m.val
	}
	if !m.coins.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	w.WriteUvarint(uint64(m.maxID))
	w.WriteUvarint(uint64(m.val))
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *knownDMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		id, err1 := rd.ReadUvarint()
		val, err2 := rd.ReadUvarint()
		if err1 != nil || err2 != nil {
			continue
		}
		if int(id) > m.maxID {
			m.maxID = int(id)
			m.val = int64(val)
		}
	}
}

func (m *knownDMachine) Output() (int64, bool) {
	if m.done {
		return m.out, true
	}
	return 0, false
}

// ViaLeader is consensus through Section 7 leader election: unknown D,
// known N'. All leader.Extra* keys apply; ExtraOutputValue is forced on.
type ViaLeader struct{}

// Name implements dynet.Protocol.
func (ViaLeader) Name() string { return "consensus/via-leader" }

// NewMachine implements dynet.Protocol.
func (ViaLeader) NewMachine(cfg dynet.Config) dynet.Machine {
	extra := make(map[string]int64, len(cfg.Extra)+1)
	for k, v := range cfg.Extra { //lint:allow puritytaint map-to-map copy is order-independent
		extra[k] = v
	}
	extra[leader.ExtraOutputValue] = 1
	cfg.Extra = extra
	return leader.Protocol{}.NewMachine(cfg)
}
