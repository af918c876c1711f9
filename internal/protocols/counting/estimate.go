package counting

import (
	"math"

	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// Extra keys read by EstimateN.
const (
	// ExtraD is the known diameter bound.
	ExtraD = "D"
	// ExtraK overrides the number of sketch copies (default KFor(N)).
	ExtraK = "K"
	// ExtraRounds overrides the gossip duration (default 4·k·(D+w)).
	ExtraRounds = "rounds"
)

// EstimateN is the known-diameter protocol for estimating the network size
// (the paper's Section 1/7 discussion: with known D, an N' accurate to any
// constant factor takes O(log N) flooding rounds; the k sketch copies give
// the log factor). Every node gossips an exponential-minima sketch over the
// shared value 0 and outputs its estimate after the fixed horizon.
type EstimateN struct{}

// Name implements dynet.Protocol.
func (EstimateN) Name() string { return "counting/estimate-n" }

// NewMachine implements dynet.Protocol.
func (EstimateN) NewMachine(cfg dynet.Config) dynet.Machine {
	k := int(cfg.ExtraInt(ExtraK, int64(KFor(cfg.N))))
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(4*k*(d+w))))
	m := &estimateMachine{
		cfg:    cfg,
		sketch: NewSketch(k),
		rounds: rounds,
		picks:  cfg.Coins.Split('p', 'i', 'c', 'k'),
	}
	m.sketch.SetOwn(0, 1, cfg.Coins)
	return m
}

type estimateMachine struct {
	cfg    dynet.Config
	sketch *Sketch
	rounds int
	picks  *rng.Source
	done   bool
	out    int64
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *estimateMachine) Step(r int) (dynet.Action, dynet.Message) {
	if r >= m.rounds && !m.done {
		m.done = true
		m.out = int64(math.Round(m.sketch.Estimate(0)))
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

func (m *estimateMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		value, copy, min, err := DecodeRecord(rd)
		if err != nil {
			continue
		}
		m.sketch.Merge(value, copy, min)
	}
}

func (m *estimateMachine) Output() (int64, bool) {
	if m.done {
		return m.out, true
	}
	return 0, false
}
