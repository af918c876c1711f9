package dynet

import "dyndiam/internal/graph"

// This file adds delta-encoded dynamic graphs: instead of materializing a
// full topology every round, an adversary may describe round r > 1 as an
// ordered edge-op script against the previous round's graph. The flood
// fast path applies the script to one mutable CSR snapshot, so per-round
// topology cost scales with the churn, not with the edge count. The script
// is applied only while something reads the snapshot: the flood kernel
// until every node is informed, and the connectivity check whenever it is
// on. Later scripts are still requested and counted, just not applied.

// EdgeOp is one edge insertion or deletion.
type EdgeOp struct {
	U, V int32
	Del  bool
}

// EdgeDiff is an ordered edge-op script transforming one round's topology
// into the next round's. Ops apply in order, so a script may legally
// delete and re-add the same edge. The zero value is an empty script;
// Reset keeps the backing array for reuse across rounds.
type EdgeDiff struct {
	Ops []EdgeOp
}

// Reset empties the script, retaining capacity.
func (d *EdgeDiff) Reset() { d.Ops = d.Ops[:0] }

// Add appends an edge insertion.
func (d *EdgeDiff) Add(u, v int) { d.Ops = append(d.Ops, EdgeOp{U: int32(u), V: int32(v)}) }

// Del appends an edge deletion.
func (d *EdgeDiff) Del(u, v int) { d.Ops = append(d.Ops, EdgeOp{U: int32(u), V: int32(v), Del: true}) }

// Len returns the number of ops.
func (d *EdgeDiff) Len() int { return len(d.Ops) }

// Apply executes the script against g in order.
func (d *EdgeDiff) Apply(g *graph.Graph) {
	for _, op := range d.Ops {
		if op.Del {
			g.RemoveEdge(int(op.U), int(op.V))
		} else {
			g.AddEdge(int(op.U), int(op.V))
		}
	}
}

// DiffGraphs appends to d the script transforming prev into next (both
// over the same vertex set): per vertex pair in ascending (u, v) order,
// edges only in prev become deletions and edges only in next become
// insertions. The merge walks both sorted adjacency lists once.
func DiffGraphs(prev, next *graph.Graph, d *EdgeDiff) {
	n := prev.N()
	for u := 0; u < n; u++ {
		pa, na := prev.Adj(u), next.Adj(u)
		i, j := 0, 0
		for i < len(pa) || j < len(na) {
			switch {
			case j == len(na) || (i < len(pa) && pa[i] < na[j]):
				if int(pa[i]) > u {
					d.Del(u, int(pa[i]))
				}
				i++
			case i == len(pa) || na[j] < pa[i]:
				if int(na[j]) > u {
					d.Add(u, int(na[j]))
				}
				j++
			default: // equal: edge present in both
				i++
				j++
			}
		}
	}
}

// DeltaAdversary is an Adversary that can additionally describe rounds as
// edge diffs. The consumer picks exactly one calling pattern per
// execution: either Topology(r, actions) for every round r = 1, 2, ...
// (the message-passing engine), or Topology(1, actions) once for the base
// graph followed by Diff(r, actions, d) for r = 2, 3, ... in order (the
// flood fast path, which applies each script to its own snapshot).
// Implementations must make both patterns produce identical topology
// sequences — the differential tests hold them to it.
type DeltaAdversary interface {
	Adversary
	// Diff appends round r's script (relative to round r-1's topology)
	// to d. Like Topology, it sees the current round's actions.
	Diff(r int, actions []Action, d *EdgeDiff)
}

// DeltaFrom wraps any Adversary as a DeltaAdversary by materializing each
// round's topology and diffing it against the previous round's. It adds
// an O(m) copy per round, so it buys no asymptotic speed — it exists so
// tests (and callers migrating incrementally) can drive the delta path
// with any existing adversary family.
func DeltaFrom(adv Adversary) DeltaAdversary {
	return &deltaWrapper{adv: adv}
}

type deltaWrapper struct {
	adv  Adversary
	prev *graph.Graph
}

func (w *deltaWrapper) Topology(r int, actions []Action) *graph.Graph {
	g := w.adv.Topology(r, actions)
	w.remember(g)
	return g
}

func (w *deltaWrapper) Diff(r int, actions []Action, d *EdgeDiff) {
	g := w.adv.Topology(r, actions)
	DiffGraphs(w.prev, g, d)
	w.remember(g)
}

func (w *deltaWrapper) remember(g *graph.Graph) {
	if w.prev == nil {
		w.prev = graph.New(g.N())
	}
	w.prev.CopyFrom(g)
}
