package dynet

import (
	"fmt"
	"math"

	"dyndiam/internal/graph"
)

// This file adds delta-encoded dynamic graphs: instead of materializing a
// full topology every round, an adversary may describe round r > 1 as an
// ordered edge-op script against the previous round's graph. The flood
// fast path applies the script to one mutable CSR snapshot, so per-round
// topology cost scales with the churn, not with the edge count. The script
// is applied only while something reads the snapshot: the flood kernel
// until every node is informed, and the connectivity check whenever it is
// on. Later scripts are still requested and counted, just not applied.
// Schedule stores a finite topology sequence in the same encoding.

// EdgeOp is one edge insertion or deletion. The JSON tags are a
// Schedule's stored form.
type EdgeOp struct {
	U   int32 `json:"u"`
	V   int32 `json:"v"`
	Del bool  `json:"del,omitempty"`
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

// Schedule is a finite topology sequence in delta encoding, the one
// stored form of a dynamic graph: adversary-search candidates and corpus
// entries, a Trace's kept topologies and the DYTR topology section are
// all Schedules. Base is round 1's edge list (applied to the empty
// graph), and Diffs[i] transforms round i+1's topology into round i+2's.
// Rounds beyond Rounds hold the last topology ("hold-last"), so a
// Schedule defines an adversary for any horizon — in particular, every
// causal spread that is open when the scripted rounds end closes over the
// final static graph, which is what lets MeasureDynamicDiameter certify
// the dynamic diameter with a finite horizon.
//
// The canonical form (what FromGraphs and a Trace produce) lists Base in
// ascending (u, v) order and derives every diff with DiffGraphs — so two
// schedules with equal topology sequences marshal to identical JSON, and
// "byte-identical best schedule" is a meaningful determinism contract.
type Schedule struct {
	N      int        `json:"n"`
	Rounds int        `json:"rounds"`
	Base   []EdgeOp   `json:"base"`
	Diffs  [][]EdgeOp `json:"diffs,omitempty"`
}

// FromGraphs builds the canonical Schedule presenting gs[r-1] in round r.
// The graphs are read, not retained.
func FromGraphs(gs []*graph.Graph) Schedule {
	var s Schedule
	if len(gs) > 1 {
		s.Diffs = make([][]EdgeOp, 0, len(gs)-1)
	}
	var d EdgeDiff
	for i, g := range gs {
		s.appendRound(gs[max(i-1, 0)], g, &d)
	}
	return s
}

// appendRound appends g as the schedule's next round in canonical form.
// prev is the schedule's current last round (unread for round 1); d is
// scratch.
func (s *Schedule) appendRound(prev, g *graph.Graph, d *EdgeDiff) {
	if s.Rounds == 0 {
		s.N = g.N()
		s.Base = make([]EdgeOp, 0, g.M())
		for u := 0; u < s.N; u++ {
			for _, v := range g.Adj(u) {
				if int(v) > u {
					s.Base = append(s.Base, EdgeOp{U: int32(u), V: v})
				}
			}
		}
	} else {
		d.Reset()
		DiffGraphs(prev, g, d)
		s.Diffs = append(s.Diffs, append(make([]EdgeOp, 0, len(d.Ops)), d.Ops...))
	}
	s.Rounds++
}

// ops returns round r's script: Base for round 1, else Diffs[r-2].
func (s Schedule) ops(r int) []EdgeOp {
	if r == 1 {
		return s.Base
	}
	return s.Diffs[r-2]
}

// Graphs materializes the schedule: element r-1 is round r's topology,
// each an independent graph.
func (s Schedule) Graphs() []*graph.Graph {
	gs := make([]*graph.Graph, 0, s.Rounds)
	adv := s.Adversary()
	for r := 1; r <= s.Rounds; r++ {
		gs = append(gs, adv.Topology(r, nil).Clone())
	}
	return gs
}

// Check is the structural check every decoder of a Schedule runs: a size
// whose vertices fit an EdgeOp, one diff per round after the first, and
// every op in range and loop-free. It does not ask for connectivity: a
// recorded trace may be disconnected by injected faults. Validate adds
// the model's obligations.
func (s Schedule) Check() error {
	if s.N < 0 || s.N > math.MaxInt32 {
		return fmt.Errorf("dynet: schedule over %d nodes (need 0 to 2^31-1)", s.N)
	}
	if s.Rounds < 0 || len(s.Diffs) != max(s.Rounds-1, 0) {
		return fmt.Errorf("dynet: schedule declares %d rounds but carries %d diffs (want rounds-1)", s.Rounds, len(s.Diffs))
	}
	for r := 1; r <= s.Rounds; r++ {
		for _, op := range s.ops(r) {
			if op.U < 0 || op.V < 0 || int(op.U) >= s.N || int(op.V) >= s.N || op.U == op.V {
				return fmt.Errorf("dynet: round %d op (%d,%d) out of range over %d nodes", r, op.U, op.V, s.N)
			}
		}
	}
	return nil
}

// Validate checks the schedule is well-formed and satisfies the model's
// adversary obligations: at least two nodes and one round, Check, and —
// the paper's standing invariant — every materialized round connected.
// Corpus entries and checkpoints pass through here before anything
// trusts them, so a hand-edited file fails loudly instead of panicking
// inside the graph core.
func (s Schedule) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("dynet: schedule over %d nodes (need at least 2)", s.N)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("dynet: schedule with %d rounds (need at least 1)", s.Rounds)
	}
	if err := s.Check(); err != nil {
		return err
	}
	adv := s.Adversary()
	for r := 1; r <= s.Rounds; r++ {
		if !adv.Topology(r, nil).Connected() {
			return fmt.Errorf("dynet: round %d topology disconnected", r)
		}
	}
	return nil
}

// Adversary returns a fresh DeltaAdversary presenting the schedule with
// hold-last extension beyond Rounds. Each call returns an independent
// adapter, so one Schedule can drive the diameter measurement and the
// protocol run of the same evaluation without sharing cursor state. Per
// the DeltaAdversary contract the consumer picks one calling pattern —
// Topology for every round in order, or Topology(1) then Diff(2),
// Diff(3), ... — and the adapter serves both from the same scripts.
func (s Schedule) Adversary() DeltaAdversary {
	return &scheduleAdversary{s: s}
}

type scheduleAdversary struct {
	s   Schedule
	g   *graph.Graph
	cur int // last round materialized into g (Topology pattern only)
}

func (a *scheduleAdversary) Topology(r int, _ []Action) *graph.Graph {
	if a.g == nil {
		a.g = graph.New(a.s.N)
	}
	switch {
	case r == 1:
		a.g.Reset()
		(&EdgeDiff{Ops: a.s.Base}).Apply(a.g)
	case r == a.cur+1:
		if r <= a.s.Rounds {
			(&EdgeDiff{Ops: a.s.ops(r)}).Apply(a.g)
		}
	case r == a.cur:
		// re-ask for the current round: g already holds it
	default:
		//lint:allow panicfree out-of-order rounds violate the Adversary contract; this is a harness bug, not data
		panic(fmt.Sprintf("dynet: schedule adversary asked for round %d after round %d", r, a.cur))
	}
	a.cur = r
	return a.g
}

func (a *scheduleAdversary) Diff(r int, _ []Action, d *EdgeDiff) {
	if r > 1 && r <= a.s.Rounds {
		d.Ops = append(d.Ops, a.s.ops(r)...) // beyond Rounds, hold-last: empty script
	}
}
