package advsearch

import (
	"fmt"

	"dyndiam/internal/dynet"
	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/verify"
)

// Proto names one searched protocol objective.
type Proto string

// The searched protocols. Each pairs a concrete Machine implementation
// with a hardness objective (see Hardness.ScoreFor):
//
//   - cflood_known: CFLOOD told the true dynamic diameter D costs exactly
//     D rounds, so the adversary maximizes D itself (the rotating star's
//     n-1 is provably optimal under every-round connectivity — at least
//     one new node is informed per round).
//   - cflood_unknown: without D the protocol pays the pessimistic N-1
//     rounds regardless; hardness is the waste, rounds/D, so the
//     adversary *minimizes* D (the static clique is optimal at D=1).
//   - consensus: the Section 6 known-D consensus runs a fixed
//     3(D+w)w-round horizon, so hardness again grows with D — but
//     through the full message-passing engine, CONGEST accounting
//     included.
//   - leaderelect: the Section 7 protocol guesses D by doubling, and its
//     round count varies richly with the schedule — the objective with
//     genuine search headroom beyond the constructions.
const (
	ProtoCFloodKnown   Proto = "cflood_known"
	ProtoCFloodUnknown Proto = "cflood_unknown"
	ProtoConsensus     Proto = "consensus"
	ProtoLeader        Proto = "leaderelect"
)

// objectives holds every searched protocol in a stable order, with the
// problem it runs (a row of the verify table) and whether the run is told
// the schedule's dynamic diameter.
var objectives = []struct {
	proto   Proto
	problem verify.Problem
	knownD  bool
}{
	{ProtoCFloodKnown, verify.MustLookup("cflood"), true},
	{ProtoCFloodUnknown, verify.MustLookup("cflood"), false},
	{ProtoConsensus, verify.MustLookup("consensus"), true},
	{ProtoLeader, verify.MustLookup("leader"), false},
}

// Protocols lists every searched protocol in a stable order.
func Protocols() []Proto {
	protos := make([]Proto, len(objectives))
	for i, o := range objectives {
		protos[i] = o.proto
	}
	return protos
}

// ParseProto validates a protocol name.
func ParseProto(s string) (Proto, error) {
	for _, p := range Protocols() {
		if Proto(s) == p {
			return p, nil
		}
	}
	return "", fmt.Errorf("advsearch: unknown protocol %q (have %v)", s, Protocols())
}

// Hardness records what one evaluation measured: the protocol's
// rounds-to-termination on the schedule, the schedule's certified
// dynamic diameter, and whether the run terminated within budget (a
// budget-capped run reports Rounds = budget with Done = false — still a
// valid, comparable hardness signal).
type Hardness struct {
	Rounds int  `json:"rounds"`
	D      int  `json:"d"`
	Done   bool `json:"done"`
}

// ScoreFor maps a measurement onto the protocol's maximization
// objective. Scores are integers so comparisons are exact: absolute
// rounds for the diameter-driven protocols, and milli-flooding-rounds
// (rounds*1000/D) for unknown-D CFLOOD, where the interesting quantity
// is how many multiples of the true diameter the pessimistic bound
// wastes.
func (h Hardness) ScoreFor(proto Proto) int64 {
	if proto == ProtoCFloodUnknown {
		if h.D <= 0 {
			return 0
		}
		return int64(h.Rounds) * 1000 / int64(h.D)
	}
	return int64(h.Rounds)
}

// Evaluate measures one schedule's hardness for one protocol. The
// schedule must Validate (the caller gates mutations; Evaluate assumes
// connectivity and lets the engine's own checks catch harness bugs).
// All protocol randomness derives from evalSeed, which the search keeps
// fixed across every candidate of a run: comparing candidates under the
// same coin tape is what makes the argmax well-defined and
// query-order independent. budget caps the rounds of the open-ended
// protocols (consensus horizons and leader election); the flood
// protocols are bounded by N+2 structurally. reg, when non-nil,
// receives the engine's metrics (the sweep-cell registry).
func Evaluate(proto Proto, s Schedule, evalSeed uint64, budget int, reg *obs.Registry) (Hardness, error) {
	i := 0
	for i < len(objectives) && objectives[i].proto != proto {
		i++
	}
	if i == len(objectives) {
		return Hardness{}, fmt.Errorf("advsearch: unknown protocol %q", proto)
	}
	p := objectives[i].problem
	d, err := harness.MeasureDynamicDiameter(s.Adversary(), s.N, s.Rounds+s.N+2)
	if err != nil {
		return Hardness{}, err
	}
	var extra map[string]int64
	if objectives[i].knownD {
		extra = map[string]int64{flood.ExtraD: int64(d)} // every known-D protocol reads this key
	}
	_, ms := p.Machines(s.N, evalSeed, extra)
	e := &dynet.Engine{Machines: ms, Adv: s.Adversary(), Terminated: p.Terminated(), Metrics: reg}
	if p.TermNode < 0 {
		res, err := e.Run(budget)
		if err != nil {
			return Hardness{}, err
		}
		return Hardness{Rounds: res.Rounds, D: d, Done: res.Done}, nil
	}
	// A flood source confirms by round N-1 under every-round
	// connectivity, so N+2 rounds bound the run structurally.
	res, err := e.RunFlood(s.N+2, dynet.StopNode(p.TermNode))
	if err != nil {
		return Hardness{}, err
	}
	if !res.Done {
		return Hardness{}, fmt.Errorf("advsearch: %s did not confirm within %d rounds (D=%d)", proto, s.N+2, d)
	}
	return Hardness{Rounds: res.Rounds, D: d, Done: true}, nil
}
