// Package hearfrom implements the HEAR-FROM-N-NODES problem of Kuhn and
// Oshman [16] and the globally-sensitive function MAX it reduces to, both
// with a known diameter bound (the paper's trivial upper bounds; under
// unknown diameter their lower bounds follow from CFLOOD, see the full
// version of the paper).
//
// In HEAR-FROM-N-NODES every node must output once it has been causally
// influenced by all N nodes. With a known diameter bound D that is, by
// definition of the dynamic diameter, guaranteed after D rounds of
// universal participation — but a node must actually *receive* causal
// chains, so nodes gossip continuously and additionally verify an
// exponential-minima count of participants before outputting, making the
// output robust rather than purely clock-based.
//
// MAX: every node outputs the maximum of all inputs. The protocol gossips
// the running maximum for a Θ((D + log N) log N) horizon.
package hearfrom

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/protocols/counting"
	"dyndiam/internal/rng"
)

// Extra keys.
const (
	// ExtraD is the known diameter bound.
	ExtraD = "D"
	// ExtraRounds overrides the gossip horizon.
	ExtraRounds = "rounds"
	// ExtraK overrides the sketch copy count (HearFrom only).
	ExtraK = "K"
)

// Max computes the maximum input over all nodes, with known D.
type Max struct{}

// Name implements dynet.Protocol.
func (Max) Name() string { return "hearfrom/max" }

// NewMachine implements dynet.Protocol.
func (Max) NewMachine(cfg dynet.Config) dynet.Machine {
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(3*(d+w)*w)))
	return &maxMachine{
		cfg:    cfg,
		rounds: rounds,
		best:   cfg.Input,
		coins:  cfg.Coins.Split('m', 'x'),
	}
}

type maxMachine struct {
	cfg    dynet.Config
	rounds int
	best   int64
	coins  *rng.Source
	done   bool
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *maxMachine) Step(r int) (dynet.Action, dynet.Message) {
	if r >= m.rounds {
		m.done = true
	}
	if !m.coins.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	w.WriteUvarint(uint64(m.best))
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *maxMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		v, err := rd.ReadUvarint()
		if err != nil {
			continue
		}
		if int64(v) > m.best {
			m.best = int64(v)
		}
	}
}

func (m *maxMachine) Output() (int64, bool) {
	if m.done {
		return m.best, true
	}
	return 0, false
}

// HearFrom solves HEAR-FROM-N-NODES with known D and known N: nodes gossip
// a participation sketch; a node outputs (the number of nodes heard from,
// i.e. N) once the horizon has elapsed *and* its sketch estimate confirms
// at least (1-1/3)·N participants — the sketch makes silent failures (a
// node that was never causally reached) observable instead of trusting the
// clock alone.
type HearFrom struct{}

// Name implements dynet.Protocol.
func (HearFrom) Name() string { return "hearfrom/hear-from-n" }

// NewMachine implements dynet.Protocol.
func (HearFrom) NewMachine(cfg dynet.Config) dynet.Machine {
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	k := int(cfg.ExtraInt(ExtraK, int64(counting.KFor(cfg.N))))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(4*k*(d+w))))
	m := &hearFromMachine{
		cfg:    cfg,
		rounds: rounds,
		sketch: counting.NewSketch(k),
		coins:  cfg.Coins.Split('h', 'f'),
	}
	m.sketch.SetOwn(0, 1, cfg.Coins)
	return m
}

type hearFromMachine struct {
	cfg    dynet.Config
	rounds int
	sketch *counting.Sketch
	coins  *rng.Source
	done   bool
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *hearFromMachine) Step(r int) (dynet.Action, dynet.Message) {
	if r >= m.rounds && !m.done {
		if m.sketch.Estimate(0) >= float64(m.cfg.N)*2/3 {
			m.done = true
		}
	}
	if !m.coins.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	value, copy, min, ok := m.sketch.PickRecord(m.coins)
	if !ok {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	counting.EncodeRecord(w, value, copy, min)
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *hearFromMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		value, copy, min, err := counting.DecodeRecord(rd)
		if err != nil {
			continue
		}
		m.sketch.Merge(value, copy, min)
	}
}

func (m *hearFromMachine) Output() (int64, bool) {
	if m.done {
		return int64(m.cfg.N), true
	}
	return 0, false
}
