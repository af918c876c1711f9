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
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// Schedule is the delta-encoded topology sequence a search explores, a
// corpus entry freezes and a checkpoint stores; dynet defines it (see
// dynet.Schedule for the encoding, the canonical form and Validate).
type Schedule = dynet.Schedule

// RandomSchedule draws a schedule of the given shape: every round an
// independent random connected graph with extraEdges beyond a spanning
// tree. All randomness comes from src, so the schedule is a pure
// function of the caller's seed derivation.
func RandomSchedule(n, rounds, extraEdges int, src *rng.Source) Schedule {
	gs := make([]*graph.Graph, rounds)
	for r := range gs {
		gs[r] = graph.RandomConnected(n, extraEdges, src.Split(uint64(r)))
	}
	return dynet.FromGraphs(gs)
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
		return dynet.FromGraphs([]*graph.Graph{g})
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
	return dynet.FromGraphs(gs)
}
