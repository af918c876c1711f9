package dynet

import (
	"math/bits"

	"dyndiam/internal/bitkernel"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Interned event names of the fast path's aggregate stream, resolved once
// at package init so emission sites stay allocation-free.
var (
	// keyFloodFast names the span wrapping one fast-path run: begin at
	// t=0 with A = node count, end at t = final round with A = informed
	// count (-1 when the run errored).
	keyFloodFast = obs.Intern("flood_fast")
	// keyDiffOps names the per-round KindCustom sample of delta-adversary
	// edge-diff operations (A = ops applied this round).
	keyDiffOps = obs.Intern("diff_ops")
)

// This file is the engine-level fast path for CFLOOD-style knowledge-set
// protocols. When every machine is a BitFlooder with one agreed flood
// shape, a run's entire observable behavior is a deterministic function
// of (informed set, round number): informed nodes send the constant
// token, uninformed nodes adopt it from any sending neighbor, and the
// source confirms once its diameter bound elapses. The engine can
// therefore replace the per-message round loop with bitkernel.FloodEngine
// word-ORs and reconcile the machines once at the end — bit-identical to
// Run (the differential and fuzz tests pin this), at a fraction of the
// cost. Adversaries implementing DeltaAdversary feed the kernel edge
// diffs against one mutable CSR snapshot instead of full topologies.

// FloodSpec describes one machine's view of a flood execution. Specs of
// all machines must agree on Source and D for the fast path to engage.
type FloodSpec struct {
	// Source is the flood source node id; D is the diameter bound after
	// which the source confirms.
	Source int
	D      int
	// Token is the flooded value and TokenBits its exact wire size; both
	// are meaningful only when Informed.
	Token     int64
	TokenBits int
	// Informed reports whether this machine already holds the token;
	// Done whether it has already confirmed.
	Informed bool
	Done     bool
}

// BitFlooder is implemented by machines whose execution the flood fast
// path can reproduce: deterministic always-send token dissemination with
// a source that confirms at its diameter bound (flood.CFlood). FloodSpec
// exposes the machine's current flood state; SyncFlood writes back the
// state an equivalent message-passing execution of `rounds` rounds would
// have produced, after which Output must answer as if that execution had
// happened.
type BitFlooder interface {
	Machine
	FloodSpec() FloodSpec
	SyncFlood(informed bool, token int64, rounds int)
}

// FloodStop selects a flood run's termination predicate. The zero value
// stops when node 0 can output; use StopNode or StopAll.
type FloodStop struct {
	node int
	all  bool
}

// StopNode stops once node v can output — for the CFLOOD source this is
// its confirmation, the NodeDecided(v) predicate of the message path.
func StopNode(v int) FloodStop { return FloodStop{node: v} }

// StopAll stops once every node can output (the AllDecided predicate).
func StopAll() FloodStop { return FloodStop{all: true} }

// RunFlood executes up to maxRounds rounds of a flood protocol, using the
// word-packed fast path when the machines qualify (TryFloodFast) and
// falling back to the message-passing Run otherwise. The stop condition
// is derived from stop — e.Terminated is overwritten, not consulted. Both
// paths return bit-identical results and identical metric snapshots; an
// attached Obs receives the round-aggregated stream on the fast path and
// the per-message stream on the fallback.
//
// RunFlood is a hotpathalloc root: dynlint proves interprocedurally that
// the observed fast path emits its aggregate events without allocating,
// so attaching an Obs cannot regress the steady state the alloc tests pin.
//
//lint:hotpath
func (e *Engine) RunFlood(maxRounds int, stop FloodStop) (*Result, error) {
	if res, ok, err := e.TryFloodFast(maxRounds, stop); ok {
		return res, err
	}
	if stop.all {
		e.Terminated = AllDecided
	} else {
		e.Terminated = NodeDecided(stop.node) //lint:allow hotpathalloc one-time predicate construction before the run
	}
	return e.Run(maxRounds)
}

// TryFloodFast attempts the word-packed flood fast path. ok reports
// whether the fast path engaged; when false, result and error are nil and
// the caller should fall back to Run. The fast path engages when:
//
//   - every machine implements BitFlooder and their specs agree on
//     (Source, D), with the source informed, no machine done, and all
//     informed machines holding one token;
//   - no features that must watch individual messages are attached
//     (Trace, fault Plan). Metrics is supported and filled with exactly
//     the values Run would produce. Obs is supported in round-aggregated
//     mode: the kernel's per-round senders/bits/frontier/diff-ops
//     aggregates are emitted as preallocated events (KindRoundEnd,
//     KindFrontier, and a "diff_ops" KindCustom under delta adversaries),
//     sampled every ObsRoundStride rounds, inside a "flood_fast" span —
//     not the per-message KindSend stream, which would defeat the point
//     of the word-packed kernel;
//   - maxRounds >= 1 and the stop node is in range.
//
// Workers is ignored: the fast path is sequential. It shares the round
// kernel's topology check (RunNodes) and its engine_* metrics; it also
// counts engine_floodfast_runs_total once it engages, even if the run
// then fails, and engine_floodfast_diff_ops_total after a run succeeds.
//
//lint:hotpath
func (e *Engine) TryFloodFast(maxRounds int, stop FloodStop) (*Result, bool, error) {
	n := len(e.Machines)
	if n == 0 || maxRounds < 1 || e.Trace != nil || e.Plan.Enabled() {
		return nil, false, nil
	}
	if !stop.all && (stop.node < 0 || stop.node >= n) {
		return nil, false, nil
	}
	var (
		src, d    int
		token     int64
		tokenBits int
		haveTok   bool
	)
	seed := bitkernel.New(n) //lint:allow hotpathalloc setup phase, before the kernel loop
	firstInformed := -1
	for v, m := range e.Machines {
		bf, ok := m.(BitFlooder)
		if !ok {
			return nil, false, nil
		}
		s := bf.FloodSpec() //lint:allow hotpathalloc machines own their spec-encoding allocation budget (pinned by AllocsPerRun tests)
		if v == 0 {
			src, d = s.Source, s.D
		} else if s.Source != src || s.D != d {
			return nil, false, nil
		}
		if s.Done {
			return nil, false, nil
		}
		if s.Informed {
			if !haveTok {
				token, tokenBits, haveTok = s.Token, s.TokenBits, true
				firstInformed = v
			} else if s.Token != token || s.TokenBits != tokenBits {
				return nil, false, nil
			}
			seed.Set(v)
		}
	}
	if src < 0 || src >= n || !seed.Test(src) {
		return nil, false, nil
	}

	e.Metrics.Counter("engine_floodfast_runs_total").Add(1) //lint:allow hotpathalloc setup-phase registry lookup, once per run
	metrics := newRunMetrics(e.Metrics)                     //lint:allow hotpathalloc setup-phase registry lookups, amortized across the run
	if budget := e.budget(n); tokenBits > budget {
		// Run would reject the lowest-id sender in round 1, before
		// consulting the adversary; every sender carries the same
		// constant token, so round 1 decides.
		return nil, true, budgetError(firstInformed, 1, tokenBits, budget) //lint:allow hotpathalloc error path terminates the run
	}

	topo := newFloodTopo(e, n) //lint:allow hotpathalloc setup phase: the topology adapter preallocates its round buffers
	cfg := bitkernel.FloodConfig{
		N: n, Source: src, D: d, TokenBits: tokenBits,
		StopAll: stop.all, StopNode: stop.node, Seed: seed,
	}
	if e.Metrics != nil {
		cfg.OnRound = func(_, senders, payloadBits int) { //lint:allow hotpathalloc setup-phase closure construction; the body is allocation-free
			metrics.observe(senders, payloadBits)
		}
	}
	if e.Obs != nil {
		// Round-aggregated observability: sample the kernel's per-round
		// aggregates every stride rounds (the final round always emits, so
		// short runs and termination rounds never vanish from the stream).
		// Event structs are fixed-size values into a preallocated sink —
		// the emission itself is allocation-free, proven interprocedurally
		// by hotpathalloc from the RunFlood root.
		stride := e.ObsRoundStride
		if stride < 1 {
			stride = 1
		}
		sink := e.Obs
		isDelta := topo.delta != nil
		cfg.OnRoundDone = func(s bitkernel.RoundStats) { //lint:allow hotpathalloc setup-phase closure construction; the body is allocation-free
			if s.R%stride != 0 && !s.Done && s.R != maxRounds {
				return
			}
			r := int32(s.R)
			sink.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: r, A: int64(s.Senders), B: int64(s.Bits)})
			sink.Emit(obs.Event{Kind: obs.KindFrontier, Round: r, A: int64(s.Newly), B: int64(s.Informed)})
			if isDelta {
				sink.Emit(obs.Event{Kind: obs.KindCustom, Round: r, A: int64(topo.lastDiff), Name: keyDiffOps})
			}
		}
	}
	runSpan := obs.BeginSpan(e.Obs, keyFloodFast, 0, int32(src), 0, int64(n))
	var fe bitkernel.FloodEngine
	fres, err := fe.Run(cfg, topo, maxRounds)
	if err != nil {
		runSpan.End(int32(fres.Rounds), -1)
		return nil, true, err
	}

	res := e.syncFlood(fres, token, metrics, topo.diffOps) //lint:allow hotpathalloc post-kernel result assembly and metrics flush
	runSpan.End(int32(fres.Rounds), int64(fres.InformedCount))
	return res, true, nil
}

// syncFlood writes a finished fast-path run back into the machines,
// assembles its Result and flushes its metrics.
func (e *Engine) syncFlood(fres bitkernel.FloodResult, token int64, metrics runMetrics, diffOps int) *Result {
	n := len(e.Machines)
	res := &Result{
		Rounds:   fres.Rounds,
		Done:     fres.Done,
		Messages: fres.Messages,
		Bits:     fres.Bits,
		Outputs:  make([]int64, n),
		Decided:  make([]bool, n),
	}
	for v, m := range e.Machines {
		m.(BitFlooder).SyncFlood(fres.Informed.Test(v), token, fres.Rounds)
		res.Outputs[v], res.Decided[v] = m.Output()
	}
	metrics.flush(res)
	e.Metrics.Counter("engine_floodfast_diff_ops_total").Add(int64(diffOps))
	return res
}

// floodTopo adapts the engine's Adversary to bitkernel.Topologies: it
// rebuilds the per-round action commitments from the informed set (every
// informed node sends), validates topologies with the round kernel's
// topoCheck, and — when the adversary is a DeltaAdversary — maintains one
// mutable CSR snapshot that each round's edge-diff script mutates in
// place instead of materializing a fresh graph.
//
// The snapshot is patched only while something reads it: the kernel's
// delivery scan, until every node is informed, and the connectivity
// check. Once all n nodes are informed and checking is off, each round's
// script is still requested and counted but not applied; the snapshot
// goes stale and is dropped with the run.
type floodTopo struct {
	adv      Adversary
	delta    DeltaAdversary // non-nil when adv implements it
	actions  []Action
	prev     bitkernel.Bits // informed snapshot behind actions
	count    int            // informed nodes, popcount of prev
	snap     *graph.Graph   // delta path's mutable round topology
	diff     EdgeDiff
	diffOps  int
	lastDiff int // diff ops applied by the most recent round (obs sample)
	topo     topoCheck
}

func newFloodTopo(e *Engine, n int) *floodTopo {
	t := &floodTopo{
		adv:     e.Adv,
		actions: make([]Action, n),
		prev:    bitkernel.New(n),
		topo:    newTopoCheck(n, e.CheckConnectivity),
	}
	if da, ok := e.Adv.(DeltaAdversary); ok {
		t.delta = da
		t.snap = graph.New(n)
	}
	return t
}

// Round implements bitkernel.Topologies. Only nodes that became informed
// since the previous round change commitment, so action maintenance costs
// O(n/64 + newly informed) per round.
//
//lint:hotpath
func (t *floodTopo) Round(r int, informed bitkernel.Bits) (*graph.Graph, error) {
	for wi, w := range informed {
		changed := w ^ t.prev[wi]
		for changed != 0 {
			v := wi<<6 + bits.TrailingZeros64(changed)
			changed &= changed - 1
			t.actions[v] = Send
			t.count++
		}
		t.prev[wi] = w
	}
	var g *graph.Graph
	if t.delta != nil && r > 1 {
		t.diff.Reset()
		t.delta.Diff(r, t.actions, &t.diff) //lint:allow hotpathalloc adversaries own their per-round script allocation budget
		t.lastDiff = t.diff.Len()
		t.diffOps += t.lastDiff
		if t.topo.connectivity() || t.count < t.topo.n {
			t.diff.Apply(t.snap)
		}
		g = t.snap
	} else {
		t.lastDiff = 0
		g = t.adv.Topology(r, t.actions) //lint:allow hotpathalloc adversaries own their per-round topology allocation budget
		if t.delta != nil && g != nil && g.N() == t.topo.n {
			// Base round: seed the mutable snapshot the later diffs edit.
			t.snap.CopyFrom(g)
			g = t.snap
		}
	}
	if err := t.topo.check(r, g); err != nil {
		return nil, err
	}
	return g, nil
}
