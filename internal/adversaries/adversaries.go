// Package adversaries provides reusable adversary families for the upper-
// bound experiments and examples.
//
// The paper's model lets the adversary pick each round's connected topology
// after seeing the current round's coin flips. The lower-bound
// constructions (package subnet) are adversaries of that adaptive kind; the
// families here are mostly *oblivious* (they ignore the actions), which is
// the setting in which gossip-style protocols with coin-driven send/receive
// choices terminate quickly — see the adaptive Staller for why full
// adaptivity defeats them (and package flood for the always-send primitive
// that it cannot defeat).
package adversaries

import (
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// RandomConnected changes the topology every round to a fresh random
// connected graph with the given extra edges beyond a spanning tree.
func RandomConnected(n, extraEdges int, seed uint64) dynet.Adversary {
	src := rng.New(seed)
	return dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.RandomConnected(n, extraEdges, src.Split(uint64(r)))
	})
}

// BoundedDiameter changes the topology every round to a random connected
// graph whose static diameter is at most targetDiam: round r's topology is
// graph.BoundedDiameterRandom(n, targetDiam, extraEdges,
// rng.New(seed).Split(r)), built into memory the adversary reuses, so each
// topology is valid only until the next Topology call.
func BoundedDiameter(n, targetDiam, extraEdges int, seed uint64) dynet.Adversary {
	return &boundedDiameter{n: n, targetDiam: targetDiam, extraEdges: extraEdges, root: *rng.New(seed)}
}

type boundedDiameter struct {
	n, targetDiam, extraEdges int
	root                      rng.Source
	b                         graph.BoundedDiameterBuilder
}

// Topology implements dynet.Adversary.
func (a *boundedDiameter) Topology(r int, _ []dynet.Action) *graph.Graph {
	return a.b.Build(a.n, a.targetDiam, a.extraEdges, a.root.Split(uint64(r)))
}

// RotatingStar presents a star whose center advances every round — the
// classic dynamic network whose every round has static diameter 2 yet whose
// dynamic diameter is n-1 (see the dynet diameter tests). It separates
// "per-round diameter" from the paper's causal dynamic diameter.
func RotatingStar(n int) dynet.Adversary {
	g := graph.New(n)
	return dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		g.Reset()
		center := r % n
		for v := 0; v < n; v++ {
			if v != center {
				g.AddEdge(center, v)
			}
		}
		return g
	})
}

// Staller is the adaptive adversary that defeats coin-driven flooding: it
// tracks which nodes hold the token (assuming the protocol marks holders by
// sending) and, whenever some believed holder is receiving this round,
// routes the entire uninformed region through that node so nothing crosses
// the cut. It is forced to concede one node only in rounds where every
// believed holder sends. Always-send protocols therefore advance every
// round, while send-with-probability-p protocols stall with the informed
// set growing only logarithmically in time.
type Staller struct {
	informed []bool
	scratch  *graph.Graph
	inf, uni []int
}

// NewStaller returns a staller believing only source is informed.
func NewStaller(n, source int) *Staller {
	s := &Staller{informed: make([]bool, n), scratch: graph.New(n)}
	s.informed[source] = true
	return s
}

// Topology implements dynet.Adversary.
func (s *Staller) Topology(r int, actions []dynet.Action) *graph.Graph {
	n := len(s.informed)
	g := s.scratch
	g.Reset()
	informed, uninformed := s.inf[:0], s.uni[:0]
	gate := -1
	for v := 0; v < n; v++ {
		if s.informed[v] {
			informed = append(informed, v)
			if actions[v] == dynet.Receive {
				gate = v
			}
		} else {
			uninformed = append(uninformed, v)
		}
	}
	s.inf, s.uni = informed, uninformed
	for i := 0; i+1 < len(informed); i++ {
		g.AddEdge(informed[i], informed[i+1])
	}
	if len(uninformed) == 0 {
		return g
	}
	attach := gate
	if attach == -1 {
		attach = informed[0]
	}
	g.AddEdge(attach, uninformed[0])
	for i := 0; i+1 < len(uninformed); i++ {
		g.AddEdge(uninformed[i], uninformed[i+1])
	}
	if gate == -1 && actions[attach] == dynet.Send && actions[uninformed[0]] == dynet.Receive {
		s.informed[uninformed[0]] = true
	}
	return g
}
