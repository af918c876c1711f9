package counting

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// Extra keys specific to MajorityProbe (ExtraD, ExtraK, ExtraRounds are
// shared with EstimateN).
const (
	// ExtraNPrime is the size estimate N' (default: the true N).
	ExtraNPrime = "nprime"
	// ExtraCPermille is the accuracy margin c in thousandths (default
	// 200).
	ExtraCPermille = "cpermille"
)

// MajorityProbe is the standalone majority-counting subroutine of Section 7
// (experiment E6): every node holds a value, gossips the counting sketch for
// a fixed horizon, and then outputs 1 if the count of nodes holding *its
// own* value clears the conservative majority threshold, else 0.
//
// The one-sided guarantee under test: a node outputs 1 only if its value is
// held by a strict majority (w.h.p.), no matter how short the horizon or
// how many distinct values dilute the gossip; and when all nodes hold one
// value and the horizon covers propagation, they all output 1.
type MajorityProbe struct{}

// Name implements dynet.Protocol.
func (MajorityProbe) Name() string { return "counting/majority-probe" }

// NewMachine implements dynet.Protocol.
func (MajorityProbe) NewMachine(cfg dynet.Config) dynet.Machine {
	k := int(cfg.ExtraInt(ExtraK, int64(KFor(cfg.N))))
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	w := bitio.WidthFor(cfg.N + 1)
	nPrime := int(cfg.ExtraInt(ExtraNPrime, int64(cfg.N)))
	c := float64(cfg.ExtraInt(ExtraCPermille, 200)) / 1000
	m := &majorityMachine{
		cfg:    cfg,
		sketch: NewSketch(k),
		rounds: int(cfg.ExtraInt(ExtraRounds, int64(4*k*(d+w)))),
		tau:    MajorityThreshold(nPrime, c),
		picks:  cfg.Coins.Split('m', 'j'),
	}
	m.sketch.SetOwn(cfg.Input, 1, cfg.Coins)
	return m
}

type majorityMachine struct {
	cfg    dynet.Config
	sketch *Sketch
	rounds int
	tau    float64
	picks  *rng.Source
	done   bool
	out    int64
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *majorityMachine) Step(r int) (dynet.Action, dynet.Message) {
	if r >= m.rounds && !m.done {
		m.done = true
		if m.sketch.Estimate(m.cfg.Input) >= m.tau {
			m.out = 1
		}
	}
	if !m.picks.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	value, copy, min, ok := m.sketch.PickRecord(m.picks)
	if !ok {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	EncodeRecord(w, value, copy, min)
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *majorityMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		value, copy, min, err := DecodeRecord(rd)
		if err != nil {
			continue
		}
		m.sketch.Merge(value, copy, min)
	}
}

func (m *majorityMachine) Output() (int64, bool) {
	if m.done {
		return m.out, true
	}
	return 0, false
}
