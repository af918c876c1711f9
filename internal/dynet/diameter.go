package dynet

import (
	"dyndiam/internal/bitkernel"
	"dyndiam/internal/graph"
)

// This file computes the paper's dynamic diameter. Following Section 2:
// (U, r) → (V, r+1) holds iff (U, V) is an edge of the round-(r+1) topology
// or U = V, ⇝ is the transitive closure, and the diameter is the minimum D
// such that (U, r) ⇝ (V, r+D) for every r ≥ 0 and all U, V. Note the
// relation is purely topological: it ignores send/receive choices, because
// it captures *potential* causal influence.
//
// The closure arithmetic lives in internal/bitkernel (a word-packed
// Closure per start time for SpreadFrom, and a DiameterTracker that steps
// every open start time as one interleaved bit matrix for
// DynamicDiameter); this file keeps the trace-shaped entry points. Callers that stream topologies instead of
// holding a full trace can drive a bitkernel.DiameterTracker directly —
// that is what harness.MeasureDynamicDiameter does.

// SpreadFrom returns the number of rounds needed, starting from state time
// r (0-based; graphs[0] is the round-1 topology), until every node has been
// causally influenced by every node, i.e. the smallest z with
// (U, r) ⇝ (V, r+z) for all U, V. It returns -1 if the spread does not
// complete within the trace.
func SpreadFrom(graphs []*graph.Graph, r int) int {
	if len(graphs) == 0 {
		return -1
	}
	n := graphs[0].N()
	if n <= 1 {
		return 0
	}
	c := bitkernel.NewClosure(n)
	for z := 1; r+z-1 < len(graphs); z++ {
		c.Step(graphs[r+z-1]) // topology of round r+z
		if c.Complete() {
			return z
		}
	}
	return -1
}

// DynamicDiameter computes the dynamic diameter witnessed by a finite
// topology trace (graphs[i] is the topology of round i+1).
//
// It returns d, the maximum completed spread over all start times, and
// exact, which reports that the trace certifies the diameter: every start
// time either completed its spread within the trace, or had fewer than d
// rounds remaining (so its incompleteness is consistent with diameter d).
// When exact is false, d is only a lower bound.
func DynamicDiameter(graphs []*graph.Graph) (d int, exact bool) {
	T := len(graphs)
	if T == 0 {
		return 0, false
	}
	n := graphs[0].N()
	if n <= 1 {
		return 0, true
	}
	tr := bitkernel.NewDiameterTracker(n)
	for _, g := range graphs {
		tr.Advance(g)
	}
	return tr.Result()
}
