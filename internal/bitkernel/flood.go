package bitkernel

import (
	"errors"
	"math/bits"

	"dyndiam/internal/graph"
)

// Topologies feeds a FloodEngine one topology per round. Round is called
// with r = 1, 2, ... in order and the informed set at the start of the
// round (read-only; every informed node is a sender this round, matching
// the model's commit-then-topology order). The returned graph must cover
// exactly the configured node count and is read-only until the next call;
// a non-nil error aborts the run. Implementations own validation such as
// connectivity checking — the kernel only consumes adjacency.
//
// In a round that starts with all N nodes informed the kernel reads no
// adjacency: there is no receiver left to deliver to. The graph returned
// for such a round only has to span N nodes, so an implementation may
// hand back a stale or edgeless graph there instead of building the
// round's real topology.
type Topologies interface {
	Round(r int, informed Bits) (*graph.Graph, error)
}

// TopologiesFunc adapts a function to Topologies.
type TopologiesFunc func(r int, informed Bits) (*graph.Graph, error)

// Round implements Topologies.
func (f TopologiesFunc) Round(r int, informed Bits) (*graph.Graph, error) { return f(r, informed) }

// FloodConfig parameterizes one FloodEngine run of a CFLOOD-style
// knowledge-set protocol: informed nodes send the token every round,
// uninformed nodes receive, and one hop of spread happens per round.
type FloodConfig struct {
	// N is the node count.
	N int
	// Source is the flood source; it must be in Seed.
	Source int
	// D is the source's diameter bound: the source confirms at the end
	// of the first executed round r >= D.
	D int
	// TokenBits is the payload size of the (constant) token message,
	// counted once per sender per round.
	TokenBits int
	// StopAll, when set, terminates when every node is informed and the
	// source has confirmed (the all-decided predicate). Otherwise the run
	// terminates when StopNode can output: at r >= D when StopNode is
	// the source, else when StopNode becomes informed.
	StopAll  bool
	StopNode int
	// Seed is the initially informed set (length WordsFor(N)); it is
	// read, not retained.
	Seed Bits
	// OnRound, when non-nil, observes each executed round's sender and
	// payload-bit totals (the engine layer's histogram hook). It fires in
	// the commitment phase, before the adversary fixes the topology, so
	// the observation sequence matches the message-passing engine's even
	// on runs aborted by a topology error.
	OnRound func(r, senders, bits int)
	// OnRoundDone, when non-nil, observes each completed round's full
	// aggregate after delivery and termination evaluation. Stats is
	// passed by value; the callback must not retain references into
	// engine state. This is the engine layer's round-aggregated event
	// hook (frontier samples, sampled round events).
	OnRoundDone func(stats RoundStats)
}

// RoundStats is one completed flood round's aggregate, handed by value to
// FloodConfig.OnRoundDone.
type RoundStats struct {
	// R is the 1-based round number.
	R int
	// Senders is the number of informed nodes at the start of the round
	// (each sent the token).
	Senders int
	// Bits is Senders * TokenBits.
	Bits int
	// Newly is the number of nodes first informed by this round's
	// delivery phase.
	Newly int
	// Informed is the total informed count after delivery.
	Informed int
	// Done reports whether the stop condition held at the end of the
	// round (this is the run's final round).
	Done bool
}

// FloodResult summarizes a FloodEngine run, mirroring the fields of the
// message-passing engine's Result that a flood run determines.
type FloodResult struct {
	// Rounds is the round at whose end the stop condition first held, or
	// the round cap if it never did.
	Rounds int
	// Done reports whether the stop condition held by the end.
	Done bool
	// Messages counts one message per informed node per executed round.
	Messages int
	// Bits counts TokenBits per message.
	Bits int
	// Informed is the final informed set. It aliases engine storage:
	// valid until the engine's next Run.
	Informed Bits
	// InformedCount is Informed.Popcount().
	InformedCount int
}

// errTopology is returned when a Topologies implementation hands back a
// graph over the wrong node count without flagging its own error.
var errTopology = errors.New("bitkernel: topology source returned a graph over the wrong node count")

// FloodEngine runs word-packed flood rounds. The zero value is ready;
// scratch buffers grow to the largest N seen and are reused across runs,
// so steady-state benchmarking reruns allocate nothing.
type FloodEngine struct {
	informed Bits
	newly    Bits
}

// Run executes up to maxRounds flood rounds over the streamed topologies
// and reports the outcome. Per round the work is: senders-side or
// receivers-side neighborhood scan (whichever frontier is smaller), one
// word-OR merge of the newly informed set, and O(N/64) bookkeeping — no
// per-message work and no allocations after the buffers are sized.
//
//lint:hotpath
//lint:pure
func (e *FloodEngine) Run(cfg FloodConfig, topo Topologies, maxRounds int) (FloodResult, error) {
	n := cfg.N
	w := WordsFor(n)
	if cap(e.informed) < w {
		e.informed = make(Bits, w) //lint:allow hotpathalloc capacity growth only; steady state reuses the buffer
		e.newly = make(Bits, w)    //lint:allow hotpathalloc capacity growth only; steady state reuses the buffer
	}
	informed := e.informed[:w]
	newly := e.newly[:w]
	informed.CopyFrom(cfg.Seed)
	count := informed.Popcount()

	res := FloodResult{Rounds: maxRounds}
	for r := 1; r <= maxRounds; r++ {
		// Phase 1: commitment. Every informed node sends the token;
		// every uninformed node receives.
		senders := count
		roundBits := senders * cfg.TokenBits
		res.Messages += senders
		res.Bits += roundBits
		if cfg.OnRound != nil {
			cfg.OnRound(r, senders, roundBits)
		}

		// Phase 2: the adversary fixes the topology knowing the actions
		// (the informed set is exactly the sender set).
		g, err := topo.Round(r, informed)
		if err != nil {
			return res, err
		}
		if g == nil || g.N() != n {
			return res, errTopology
		}

		// Phase 3: delivery. A receiver adjacent to any sender adopts
		// the token. Scan whichever frontier is smaller: the sender side
		// touches each informed node's neighborhood once; the receiver
		// side exits each uninformed node's scan at its first informed
		// neighbor.
		newlyCount := 0
		if count < n {
			newly.Zero()
			if 2*count <= n {
				for wi := 0; wi < w; wi++ {
					word := informed[wi]
					for word != 0 {
						u := wi<<6 + bits.TrailingZeros64(word)
						word &= word - 1
						for _, v := range g.Adj(u) {
							if !informed.Test(int(v)) {
								newly.Set(int(v))
							}
						}
					}
				}
			} else {
				for wi := 0; wi < w; wi++ {
					word := ^informed[wi]
					if wi == w-1 {
						word &= TailMask(n)
					}
					for word != 0 {
						v := wi<<6 + bits.TrailingZeros64(word)
						word &= word - 1
						for _, u := range g.Adj(v) {
							if informed.Test(int(u)) {
								newly.Set(v)
								break
							}
						}
					}
				}
			}
			if delta := newly.Popcount(); delta > 0 {
				informed.Or(newly)
				count += delta
				newlyCount = delta
			}
		}

		// Termination is evaluated at the end of the round, after
		// delivery, like the message-passing engine's predicate.
		var done bool
		switch {
		case cfg.StopAll:
			done = count == n && r >= cfg.D
		case cfg.StopNode == cfg.Source:
			done = r >= cfg.D
		default:
			done = informed.Test(cfg.StopNode)
		}
		if cfg.OnRoundDone != nil {
			cfg.OnRoundDone(RoundStats{
				R: r, Senders: senders, Bits: roundBits,
				Newly: newlyCount, Informed: count, Done: done,
			})
		}
		if done {
			res.Rounds = r
			res.Done = true
			break
		}
	}
	res.Informed = informed
	res.InformedCount = count
	return res, nil
}
