package main

import (
	"fmt"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/advsearch"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/leader"
)

// The traced leader-msg run rebuilds each case's elections from the
// layers' public functions, the same inputs the harness calls derive, so
// the shims can sit around the machines, the adversary and the
// termination predicate. Each pass also runs the untraced case once as
// the reference for the tracing overhead, the round cross-check and the
// runtime figures.

// leaderTrace accumulates what the tally does not: the degradation cost
// split, the search and the Workers comparison.
type leaderTrace struct {
	cleanWall, faultWall     time.Duration
	cleanRounds, faultRounds int64
	searchWall               time.Duration
	evals, improvements      int64
	seqWall, parWall         time.Duration
}

// election runs one traced leader election and checks its outputs.
func election(t *tally, e *dynet.Engine, n int) (int64, error) {
	res, err := t.run(e, leaderBudget)
	if err != nil {
		return 0, err
	}
	if !res.Done {
		return 0, fmt.Errorf("N=%d election did not terminate", n)
	}
	for v, out := range res.Outputs {
		if out != int64(n-1) {
			return 0, fmt.Errorf("N=%d election: node %d output %d", n, v, out)
		}
	}
	return int64(res.Rounds), nil
}

// tracedLeaderCase runs case c through the shims and returns its
// per-call rounds in runLeaderCase's order.
func tracedLeaderCase(sz leaderSizes, c leaderCase, t *tally, lt *leaderTrace) ([4]int64, error) {
	var rounds [4]int64
	// LeaderSweep: certify D, then elect, for each size.
	for _, n := range sz.Sweep {
		advSeed := c.Sweep + uint64(n)
		t0 := time.Now()
		_, err := harness.MeasureDynamicDiameter(adversaries.BoundedDiameter(n, leaderTargetD, n/2, advSeed), n, 6*leaderTargetD+60)
		t.diam += time.Since(t0)
		if err != nil {
			return rounds, err
		}
		e := &dynet.Engine{
			Machines: dynet.NewMachines(leader.Protocol{}, n, make([]int64, n), c.Sweep^uint64(3*n), leaderExtra(n)),
			Adv:      adversaries.BoundedDiameter(n, leaderTargetD, n/2, advSeed),
			Workers:  1,
		}
		r, err := election(t, e, n)
		if err != nil {
			return rounds, err
		}
		rounds[0] += r
	}
	// LeaderDegradation: trial t of row i, with the harness's seeds.
	n := sz.DegN
	for i, spec := range degradationSpecs {
		for trial := 0; trial < sz.DegTrials; trial++ {
			seed := harness.ReliabilityTrialSeed(trial)
			var plan *faults.Plan
			if !spec.Zero() {
				s := spec
				s.Seed = harness.FaultTrialSeed(c.Deg, i, trial)
				p, err := faults.NewPlan(s)
				if err != nil {
					return rounds, err
				}
				plan = p
			}
			e := &dynet.Engine{
				Machines: dynet.NewMachines(leader.Protocol{}, n, make([]int64, n), seed, nil),
				Adv:      adversaries.BoundedDiameter(n, leaderTargetD, n/2, seed),
				Workers:  1,
				Plan:     plan,
			}
			t0 := time.Now()
			r, err := election(t, e, n)
			d := time.Since(t0)
			if err != nil {
				return rounds, err
			}
			rounds[1] += r
			if plan == nil {
				lt.cleanWall += d
				lt.cleanRounds += r
			} else {
				lt.faultWall += d
				lt.faultRounds += r
			}
		}
	}
	// The search is timed as a whole; its counters come from its own
	// metrics hook.
	reg := obs.NewRegistry()
	t0 := time.Now()
	rep, err := advsearch.Search(sz.searchConfig(c), nil, advsearch.Options{Metrics: reg})
	lt.searchWall += time.Since(t0)
	if err != nil {
		return rounds, err
	}
	lt.evals += reg.Counter("advsearch_candidates_total").Value()
	lt.improvements += reg.Counter("advsearch_improvements_total").Value()
	if int(reg.Counter("advsearch_candidates_total").Value()) != rep.Evaluated {
		return rounds, fmt.Errorf("advsearch_candidates_total %d != Report.Evaluated %d",
			reg.Counter("advsearch_candidates_total").Value(), rep.Evaluated)
	}
	// The large election, through the shims. It runs at Workers=1: at
	// Workers=0 the engine calls Step and Deliver from several goroutines
	// at once, and their shim times would add up to more than the wall
	// time they overlap. Parallel and sequential stepping give the same
	// rounds, so the cross-check against the untraced Workers=0 run holds.
	r, err := election(t, sz.bigEngine(c, 1), sz.BigN)
	if err != nil {
		return rounds, err
	}
	rounds[3] = r
	return rounds, nil
}

// workersRuns times the large election unshimmed at Workers=1 and 0.
func workersRuns(sz leaderSizes, c leaderCase, lt *leaderTrace) error {
	for _, w := range []int{1, 0} {
		e := sz.bigEngine(c, w)
		t0 := time.Now()
		res, err := e.Run(leaderBudget)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if !res.Done {
			return fmt.Errorf("Workers=%d election did not terminate", w)
		}
		if w == 1 {
			lt.seqWall += d
		} else {
			lt.parWall += d
		}
	}
	return nil
}

// runLeaderTraced runs fresh cases until the budget is spent, each once
// untraced as the reference and once through the shims. Exact counts
// are those of the first pass of sz.Cases cases, the same cases an
// untraced run's counts cover; times are reported per pass.
func runLeaderTraced(o opts, sz leaderSizes, caseAt func(int) leaderCase, rep *report, record func(int, leaderOutcome)) {
	t := newTally()
	var lt leaderTrace
	var wt wireTrace
	var refWall, tracedWall time.Duration
	var refRounds int64
	var mem memDelta
	counters := func() map[string]int64 {
		return map[string]int64{
			"rounds":         t.counter("engine_rounds_total"),
			"messages":       t.counter("engine_messages_total"),
			"bits":           t.counter("engine_bits_total"),
			"floodfast_runs": t.counter("engine_floodfast_runs_total"),
			"faults":         t.faultsInjected(),
			"evals":          lt.evals,
			"improvements":   lt.improvements,
		}
	}
	var first map[string]int64
	start := time.Now()
	i := 0
	for ; i < sz.Cases || time.Since(start) < o.budget(); i++ {
		c := caseAt(i)
		var ref leaderOutcome
		mem.add(measureMem(func() { ref = runLeaderCase(sz, c) }))
		rep.attempted++
		record(i, ref)
		refWall += ref.elapsed
		r := ref.caseRounds()
		refRounds += r[0] + r[1] + r[3]

		rep.attempted++
		t0 := time.Now()
		rounds, err := tracedLeaderCase(sz, c, t, &lt)
		tracedWall += time.Since(t0)
		if err != nil {
			rep.fail("leader-msg traced case %d: %v", i, err)
		} else if rounds != r {
			rep.fail("leader-msg traced case %d: rounds %v, untraced %v", i, rounds, r)
		}
		if err := workersRuns(sz, c, &lt); err != nil {
			rep.fail("leader-msg workers case %d: %v", i, err)
		}
		if i%sz.Cases == 0 {
			rep.attempted++
			if err := wirePass(sz.Wire, derive(o.seed, "leader/wire", i/sz.Cases), &wt); err != nil {
				rep.fail("leader-msg wire pass %d: %v", i/sz.Cases, err)
			}
		}
		if i == sz.Cases-1 {
			first = counters()
			for name, n := range wt.first {
				first["wire_"+name] = n
			}
		}
	}

	passes := float64(i) / float64(sz.Cases)
	m := map[string]float64{}
	t.fill(m, passes)
	m["dynet.rounds"] = float64(first["rounds"])
	m["dynet.messages"] = float64(first["messages"])
	m["dynet.bits"] = float64(first["bits"])
	m["dynet.floodfast_runs"] = float64(first["floodfast_runs"])
	m["dynet.workers_speedup"] = ratio(lt.seqWall.Seconds(), lt.parWall.Seconds())
	m["protocols.step_calls"] = float64(t.mc.steps) / passes
	m["protocols.deliver_msgs"] = float64(t.mc.msgs) / passes
	m["faults.round_cost_x"] = ratio(ratio(lt.faultWall.Seconds(), float64(lt.faultRounds)), ratio(lt.cleanWall.Seconds(), float64(lt.cleanRounds)))
	m["faults.injected"] = float64(first["faults"])
	m["advsearch.evals"] = float64(first["evals"])
	m["advsearch.improvements"] = float64(first["improvements"])
	m["advsearch.evals_per_s"] = ratio(float64(lt.evals), lt.searchWall.Seconds())
	m["bench.rounds_per_s"] = ratio(float64(refRounds), refWall.Seconds())
	m["bench.trace_overhead_x"] = ratio(tracedWall.Seconds(), refWall.Seconds())
	fillRuntime(m, mem, refRounds, passes)
	wt.fill(m)
	m["adversaries.topology_s"] += wt.adv.topology.Seconds() / passes
	rep.layers = m
	rep.counts = first
}
