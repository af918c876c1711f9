// Package advsearch synthesizes adversarial dynamic-graph schedules by
// search instead of by hand. The paper's lower bounds come from explicit
// constructions (the rotating star, the Theorem 6 subnetworks); this
// package asks whether *worse* instances exist for the repo's concrete
// protocols by searching edge-schedule space — seeded random restarts,
// greedy edge-rewire local search, and a mutation/crossover mode over
// EdgeDiff scripts — subject to the model's every-round-connectivity
// invariant. Everything is a pure function of the configured seeds:
// candidates are evaluated as deterministic sweep cells (the
// internal/harness per-cell machinery), so a search is reproducible bit
// for bit at any Sweep.Workers setting, checkpointable, and its best
// discoveries can be frozen into the regression corpus (see corpus.go).
package advsearch

import (
	"fmt"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// Op is one serialized edge operation: insert (u, v), or delete it when
// Del is set. It is dynet.EdgeOp with JSON tags, so schedules round-trip
// through the corpus and checkpoint files.
type Op struct {
	U   int32 `json:"u"`
	V   int32 `json:"v"`
	Del bool  `json:"del,omitempty"`
}

// Schedule is a finite dynamic-graph schedule in delta encoding: Base is
// round 1's edge list (applied to the empty graph), and Diffs[i]
// transforms round i+1's topology into round i+2's. Rounds beyond Rounds
// hold the last topology ("hold-last"), so a Schedule defines an
// adversary for any horizon — in particular, every causal spread that is
// open when the scripted rounds end closes over the final static graph,
// which is what lets MeasureDynamicDiameter certify the dynamic diameter
// with a finite horizon.
//
// The canonical form (what FromGraphs produces) lists Base in ascending
// (u, v) order and derives every diff with dynet.DiffGraphs, which walks
// sorted adjacencies — so two schedules with equal topology sequences
// marshal to identical JSON, and "byte-identical best schedule" is a
// meaningful determinism contract.
type Schedule struct {
	N      int    `json:"n"`
	Rounds int    `json:"rounds"`
	Base   []Op   `json:"base"`
	Diffs  [][]Op `json:"diffs,omitempty"`
}

// FromGraphs builds the canonical Schedule presenting gs[r-1] in round r.
// The graphs are read, not retained.
func FromGraphs(gs []*graph.Graph) Schedule {
	if len(gs) == 0 {
		return Schedule{}
	}
	n := gs[0].N()
	s := Schedule{N: n, Rounds: len(gs)}
	for _, e := range gs[0].Edges() {
		s.Base = append(s.Base, Op{U: int32(e[0]), V: int32(e[1])})
	}
	if len(gs) > 1 {
		s.Diffs = make([][]Op, len(gs)-1)
		var d dynet.EdgeDiff
		for i := 1; i < len(gs); i++ {
			d.Reset()
			dynet.DiffGraphs(gs[i-1], gs[i], &d)
			ops := make([]Op, len(d.Ops))
			for j, op := range d.Ops {
				ops[j] = Op{U: op.U, V: op.V, Del: op.Del}
			}
			s.Diffs[i-1] = ops
		}
	}
	return s
}

// Graphs materializes the schedule: element r-1 is round r's topology.
func (s Schedule) Graphs() []*graph.Graph {
	gs := make([]*graph.Graph, 0, s.Rounds)
	g := graph.New(s.N)
	applyOps(g, s.Base)
	gs = append(gs, g)
	for _, diff := range s.Diffs {
		g = g.Clone()
		applyOps(g, diff)
		gs = append(gs, g)
	}
	return gs
}

func applyOps(g *graph.Graph, ops []Op) {
	for _, op := range ops {
		if op.Del {
			g.RemoveEdge(int(op.U), int(op.V))
		} else {
			g.AddEdge(int(op.U), int(op.V))
		}
	}
}

// Validate checks the schedule is well-formed and satisfies the model's
// adversary obligations: positive size, consistent diff count, every op
// in range and loop-free, and — the paper's standing invariant — every
// materialized round connected. Corpus entries and checkpoints pass
// through here before anything trusts them, so a hand-edited file fails
// loudly instead of panicking inside the graph core.
func (s Schedule) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("advsearch: schedule over %d nodes (need at least 2)", s.N)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("advsearch: schedule with %d rounds (need at least 1)", s.Rounds)
	}
	if len(s.Diffs) != s.Rounds-1 {
		return fmt.Errorf("advsearch: schedule declares %d rounds but carries %d diffs (want rounds-1)", s.Rounds, len(s.Diffs))
	}
	checkOps := func(r int, ops []Op) error {
		for _, op := range ops {
			if op.U < 0 || op.V < 0 || int(op.U) >= s.N || int(op.V) >= s.N || op.U == op.V {
				return fmt.Errorf("advsearch: round %d op (%d,%d) out of range over %d nodes", r, op.U, op.V, s.N)
			}
		}
		return nil
	}
	if err := checkOps(1, s.Base); err != nil {
		return err
	}
	g := graph.New(s.N)
	applyOps(g, s.Base)
	if !g.Connected() {
		return fmt.Errorf("advsearch: round 1 topology disconnected")
	}
	for i, diff := range s.Diffs {
		if err := checkOps(i+2, diff); err != nil {
			return err
		}
		applyOps(g, diff)
		if !g.Connected() {
			return fmt.Errorf("advsearch: round %d topology disconnected", i+2)
		}
	}
	return nil
}

// Adversary returns a fresh dynet.DeltaAdversary presenting the schedule
// with hold-last extension beyond Rounds. Each call returns an
// independent adapter, so one Schedule can drive the diameter
// measurement and the protocol run of the same evaluation without
// sharing cursor state. Per the DeltaAdversary contract the consumer
// picks one calling pattern — Topology for every round in order, or
// Topology(1) then Diff(2), Diff(3), ... — and the adapter serves both
// from the same scripts.
func (s Schedule) Adversary() dynet.DeltaAdversary {
	return &schedAdversary{s: s}
}

type schedAdversary struct {
	s   Schedule
	g   *graph.Graph
	cur int // last round materialized into g (Topology pattern only)
}

func (a *schedAdversary) Topology(r int, _ []dynet.Action) *graph.Graph {
	if a.g == nil {
		a.g = graph.New(a.s.N)
	}
	switch {
	case r == 1:
		a.g.Reset()
		applyOps(a.g, a.s.Base)
	case r == a.cur+1:
		if r <= a.s.Rounds {
			applyOps(a.g, a.s.Diffs[r-2])
		}
	case r == a.cur:
		// re-ask for the current round: g already holds it
	default:
		//lint:allow panicfree out-of-order rounds violate the Adversary contract; this is a harness bug, not data
		panic(fmt.Sprintf("advsearch: schedule adversary asked for round %d after round %d", r, a.cur))
	}
	a.cur = r
	return a.g
}

func (a *schedAdversary) Diff(r int, _ []dynet.Action, d *dynet.EdgeDiff) {
	if r <= 1 || r > a.s.Rounds {
		return // hold-last: empty script
	}
	for _, op := range a.s.Diffs[r-2] {
		d.Ops = append(d.Ops, dynet.EdgeOp{U: op.U, V: op.V, Del: op.Del})
	}
}

// RandomSchedule draws a schedule of the given shape: every round an
// independent random connected graph with extraEdges beyond a spanning
// tree. All randomness comes from src, so the schedule is a pure
// function of the caller's seed derivation.
func RandomSchedule(n, rounds, extraEdges int, src *rng.Source) Schedule {
	gs := make([]*graph.Graph, rounds)
	for r := range gs {
		gs[r] = graph.RandomConnected(n, extraEdges, src.Split(uint64(r)))
	}
	return FromGraphs(gs)
}

// Constructed returns the paper-derived baseline schedule the search
// must beat for a protocol: the rotating star (per-round diameter 2,
// dynamic diameter n-1 — the classic hand-built worst case) for the
// diameter-driven protocols, and the static clique (dynamic diameter 1)
// for unknown-D CFLOOD, whose hardness is the pessimistic N-1 rounds
// *relative to* the true diameter — the adversary maximizes waste by
// making the graph as good as possible.
func Constructed(proto Proto, n, rounds int) Schedule {
	if proto == ProtoCFloodUnknown {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		return FromGraphs([]*graph.Graph{g})
	}
	gs := make([]*graph.Graph, rounds)
	for i := range gs {
		g := graph.New(n)
		center := (i + 1) % n
		for v := 0; v < n; v++ {
			if v != center {
				g.AddEdge(center, v)
			}
		}
		gs[i] = g
	}
	return FromGraphs(gs)
}
