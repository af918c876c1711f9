package counting

import (
	"math"

	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// This file extends the exponential-minima machinery from counting to the
// separable-function setting of Mosk-Aoyama and Shah [18] that the paper's
// Section 7 cites: estimating a SUM of non-negative integer node weights.
// The minimum of w independent Exp(1) variates is Exp(w), so a node with
// weight w contributes one Exp(w) draw per copy and the usual estimator
// (k-1)/sum_c W_c concentrates on the total weight. Counting is the w = 1
// special case; MAX and other globally-sensitive functions reduce to such
// aggregates per the paper's Section 1 discussion of [16].

// SetOwnWeighted registers a weighted contribution: an Exp(weight) draw per
// copy (weight 0 contributes nothing). Draws are float32-quantized at
// creation like SetOwn's.
func (s *Sketch) SetOwnWeighted(value int64, weight int64, nonce uint64, coins *rng.Source) {
	if weight <= 0 {
		return
	}
	row := s.row(value)
	for c := 0; c < s.k; c++ {
		draw := float32(coins.Split(nonce, uint64(c)).Exp() / float64(weight))
		if draw < row[c] {
			row[c] = draw
		}
	}
}

// SumEstimate is the known-diameter protocol estimating the sum of all node
// Inputs (non-negative weights): gossip a weighted sketch for the fixed
// horizon, then output the rounded estimate. Extra keys: ExtraD, ExtraK,
// ExtraRounds (shared with EstimateN).
type SumEstimate struct{}

// Name implements dynet.Protocol.
func (SumEstimate) Name() string { return "counting/sum-estimate" }

// NewMachine implements dynet.Protocol.
func (SumEstimate) NewMachine(cfg dynet.Config) dynet.Machine {
	k := int(cfg.ExtraInt(ExtraK, int64(KFor(cfg.N))))
	d := int(cfg.ExtraInt(ExtraD, int64(cfg.N-1)))
	w := bitio.WidthFor(cfg.N + 1)
	rounds := int(cfg.ExtraInt(ExtraRounds, int64(4*k*(d+w))))
	m := &sumMachine{
		cfg:    cfg,
		sketch: NewSketch(k),
		rounds: rounds,
		picks:  cfg.Coins.Split('s', 'u', 'm'),
	}
	m.sketch.SetOwnWeighted(0, cfg.Input, 1, cfg.Coins)
	return m
}

type sumMachine struct {
	cfg    dynet.Config
	sketch *Sketch
	rounds int
	picks  *rng.Source
	done   bool
	out    int64
	wr     bitio.Writer // encodes every payload this machine sends
}

func (m *sumMachine) Step(r int) (dynet.Action, dynet.Message) {
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

func (m *sumMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		rd := bitio.NewReader(msg.Payload, msg.NBits)
		value, copy, min, err := DecodeRecord(rd)
		if err != nil {
			continue
		}
		m.sketch.Merge(value, copy, min)
	}
}

func (m *sumMachine) Output() (int64, bool) {
	if m.done {
		return m.out, true
	}
	return 0, false
}
