package dynet

import "dyndiam/internal/graph"

// Adversary fixes the topology of every round. Per the model, it may inspect
// the actions the nodes committed for the current round (their coin flips
// happen first), but never future coins.
type Adversary interface {
	// Topology returns the graph for round r >= 1. actions[v] is node v's
	// committed action for round r. The returned graph must span all N
	// nodes and be connected; the engine verifies connectivity when
	// CheckConnectivity is set. The engine treats the result as read-only
	// for the duration of the round, and adversaries may reuse the same
	// Graph value across calls: the result is only valid until the next
	// Topology call. Callers that keep topologies across rounds must copy
	// them (a Trace with KeepTopologies diffs each against its own copy).
	Topology(r int, actions []Action) *graph.Graph
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(r int, actions []Action) *graph.Graph

// Topology implements Adversary.
func (f AdversaryFunc) Topology(r int, actions []Action) *graph.Graph {
	return f(r, actions)
}

// Static returns an adversary that presents the same graph every round —
// the static-network special case of the model.
func Static(g *graph.Graph) Adversary {
	return AdversaryFunc(func(int, []Action) *graph.Graph { return g })
}
