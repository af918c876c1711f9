// Package flood implements token dissemination and the CFLOOD (confirmed
// flooding) problem from the paper.
//
// In CFLOOD a designated source must propagate a token of O(log N) bits to
// all nodes and then output a special symbol; the output is correct if by
// that time every node holds the token.
//
// With the diameter D known, CFLOOD is trivial and deterministic in this
// model: every informed node sends the token in every round, every
// uninformed node receives, and the source outputs at the end of round D.
// Correctness holds against even the fully adaptive adversary: along any
// time-respecting causal path (whose existence within D rounds is exactly
// the definition of dynamic diameter), each predecessor is informed and
// sending and each uninformed successor is receiving, so the token follows
// the path. This realizes the paper's known-D upper bound — one flooding
// round.
//
// With D unknown, the only safe deterministic choice is the pessimistic
// D := N-1 (every connected dynamic network has dynamic diameter <= N-1),
// which costs Θ(N/D) flooding rounds on a diameter-D network. Theorem 6
// shows *every* unknown-D protocol must pay Ω((N/log N)^¼) flooding rounds,
// so the pessimistic baseline is within poly(N) of optimal.
//
// The package also provides PFlood, a randomized variant in which informed
// nodes send with probability p — the ablation of the always-send design
// decision. Against oblivious adversaries it completes in O(D + log N)
// rounds w.h.p. for constant p, but the adaptive adversary can stall it
// (see the package tests), which is why the deterministic variant is the
// primitive everything else builds on.
package flood

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
)

// Extra keys read by the protocols in this package.
const (
	// ExtraD is the diameter bound handed to the protocol ("known D").
	// When absent, the pessimistic N-1 is used ("unknown D").
	ExtraD = "D"
	// ExtraSource is the id of the CFLOOD source (default 0).
	ExtraSource = "source"
	// ExtraRounds overrides the number of rounds the source waits before
	// confirming (PFlood only; CFlood always waits exactly its D bound).
	ExtraRounds = "rounds"
	// ExtraSendPermille is PFlood's per-round send probability of an
	// informed node, in thousandths (default 500 = 1/2).
	ExtraSendPermille = "sendpermille"
)

// CFlood is the deterministic confirmed-flooding protocol: informed nodes
// always send; the source outputs after its diameter bound elapses.
// The source's Input is the token value.
type CFlood struct{}

// Name implements dynet.Protocol.
func (CFlood) Name() string { return "flood/cflood" }

// NewMachine implements dynet.Protocol.
func (CFlood) NewMachine(cfg dynet.Config) dynet.Machine {
	d := cfg.ExtraInt(ExtraD, int64(cfg.N-1))
	src := int(cfg.ExtraInt(ExtraSource, 0))
	m := &cfloodMachine{id: cfg.ID, d: int(d), source: src}
	if cfg.ID == src {
		m.token = cfg.Input
		m.informed = true
	}
	return m
}

type cfloodMachine struct {
	id       int
	d        int
	source   int
	token    int64
	informed bool
	done     bool
	wr       bitio.Writer // encodes every payload this machine sends
}

func (m *cfloodMachine) Step(r int) (dynet.Action, dynet.Message) {
	if !m.informed {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	w.WriteUvarint(uint64(m.token))
	if m.id == m.source && r >= m.d {
		// The token has had D rounds to follow every causal path; the
		// source confirms. (It keeps sending afterwards, harmlessly.)
		m.done = true
	}
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *cfloodMachine) Deliver(r int, msgs []dynet.Message) {
	if m.informed || len(msgs) == 0 {
		return
	}
	rd := bitio.NewReader(msgs[0].Payload, msgs[0].NBits)
	tok, err := rd.ReadUvarint()
	if err != nil {
		return // malformed message: ignore, stay uninformed
	}
	m.token = int64(tok)
	m.informed = true
}

// FloodSpec implements dynet.BitFlooder, qualifying CFlood for the
// engine's word-packed fast path. TokenBits is the exact uvarint wire
// size Step would pay per message.
func (m *cfloodMachine) FloodSpec() dynet.FloodSpec {
	s := dynet.FloodSpec{Source: m.source, D: m.d, Informed: m.informed, Done: m.done}
	if m.informed {
		s.Token = m.token
		s.TokenBits = bitio.UvarintLen(uint64(m.token))
	}
	return s
}

// SyncFlood implements dynet.BitFlooder: it writes back the state an
// equivalent message-passing execution of `rounds` rounds would leave.
// An informed node holds the token; the source has confirmed iff some
// executed round reached its diameter bound (Step sets done at the first
// round r >= d, so after rounds >= 1 executed rounds, done iff
// rounds >= d).
func (m *cfloodMachine) SyncFlood(informed bool, token int64, rounds int) {
	if informed && !m.informed {
		m.informed = true
		m.token = token
	}
	if m.id == m.source && m.informed && rounds >= m.d {
		m.done = true
	}
}

func (m *cfloodMachine) Output() (int64, bool) {
	if m.id == m.source {
		if m.done {
			return m.token, true
		}
		return 0, false
	}
	if m.informed {
		return m.token, true
	}
	return 0, false
}

// PFlood is the randomized-flooding ablation: informed nodes send with a
// configurable probability, and the source waits ExtraRounds rounds before
// confirming (default 4·D·⌈log₂N⌉).
type PFlood struct{}

// Name implements dynet.Protocol.
func (PFlood) Name() string { return "flood/pflood" }

// NewMachine implements dynet.Protocol.
func (PFlood) NewMachine(cfg dynet.Config) dynet.Machine {
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	src := int(cfg.ExtraInt(ExtraSource, 0))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(4*d*w)))
	permille := int(cfg.ExtraInt(ExtraSendPermille, 500))
	m := &pfloodMachine{
		cfg: cfg, rounds: rounds, source: src,
		p: float64(permille) / 1000,
	}
	if cfg.ID == src {
		m.token = cfg.Input
		m.informed = true
	}
	return m
}

type pfloodMachine struct {
	cfg      dynet.Config
	rounds   int
	source   int
	p        float64
	token    int64
	informed bool
	done     bool
	wr       bitio.Writer // encodes every payload this machine sends
}

func (m *pfloodMachine) Step(r int) (dynet.Action, dynet.Message) {
	if m.cfg.ID == m.source && r >= m.rounds {
		m.done = true
	}
	if !m.informed || !m.cfg.Coins.At(m.cfg.ID, r).Prob(m.p) {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	w.WriteUvarint(uint64(m.token))
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *pfloodMachine) Deliver(r int, msgs []dynet.Message) {
	if m.informed || len(msgs) == 0 {
		return
	}
	rd := bitio.NewReader(msgs[0].Payload, msgs[0].NBits)
	tok, err := rd.ReadUvarint()
	if err != nil {
		return
	}
	m.token = int64(tok)
	m.informed = true
}

func (m *pfloodMachine) Output() (int64, bool) {
	if m.cfg.ID == m.source {
		if m.done {
			return m.token, true
		}
		return 0, false
	}
	if m.informed {
		return m.token, true
	}
	return 0, false
}

// Informed reports whether a flood machine holds the token — used by tests
// and the harness to audit CFLOOD output correctness (did the source
// confirm only after everyone was informed?).
func Informed(m dynet.Machine) bool {
	switch mm := m.(type) {
	case *cfloodMachine:
		return mm.informed
	case *pfloodMachine:
		return mm.informed
	}
	return false
}
