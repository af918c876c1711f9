package main

import (
	"fmt"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/harness"
	"dyndiam/internal/protocols/flood"
)

// flood-huge: the CFLOOD word-packed fast path. One case is one
// Engine.RunFlood over a delta-encoded churn network at N=10^5 with a
// known diameter bound, then one harness.GapTable over small sizes.

const (
	floodD       = 256 // the known diameter bound: the huge run takes this many rounds
	gapTargetD   = 4
	floodCasesFn = 4
)

type floodSizes struct {
	N     int   `json:"n"`
	Extra int   `json:"extra_edges"`
	Rew   int   `json:"rewires"`
	Gap   []int `json:"gap_sizes"`
	Cases int   `json:"cases"`
}

var (
	floodFull = floodSizes{N: 100_000, Extra: 100_000 / 8, Rew: 100_000 / 64, Gap: []int{128, 256}, Cases: floodCasesFn}
	floodTiny = floodSizes{N: 2_000, Extra: 2_000 / 8, Rew: 2_000 / 64, Gap: []int{16}, Cases: 2}
)

type floodCase struct {
	Machines uint64 `json:"machine_seed"`
	Adv      uint64 `json:"adversary_seed"`
	Gap      uint64 `json:"gap_seed"`
}

// floodCaseAt derives case i, skipping gap-table seeds whose diameter
// the harness cannot certify; it returns how many it skipped.
func floodCaseAt(seed uint64, i int, gapSizes []int) (floodCase, int) {
	gap, skipped := certifiedSeed(seed, "flood/gap", i, gapSizes, gapTargetD)
	return floodCase{
		Machines: derive(seed, "flood/machines", i),
		Adv:      derive(seed, "flood/adv", i),
		Gap:      gap,
	}, skipped
}

func floodFirstPass(seed uint64, sz floodSizes) ([]floodCase, int) {
	cs := make([]floodCase, sz.Cases)
	total := 0
	for i := range cs {
		c, skipped := floodCaseAt(seed, i, sz.Gap)
		cs[i] = c
		total += skipped
	}
	return cs, total
}

// hugeEngine builds the CFLOOD machines and the churn adversary. The
// source, node 0, holds the token.
func (sz floodSizes) hugeEngine(c floodCase) *dynet.Engine {
	inputs := make([]int64, sz.N)
	inputs[0] = 1
	return &dynet.Engine{
		Machines: dynet.NewMachines(flood.CFlood{}, sz.N, inputs, c.Machines, map[string]int64{flood.ExtraD: floodD}),
		Adv:      adversaries.NewDeltaChurn(sz.N, sz.Extra, sz.Rew, c.Adv),
		Workers:  1,
	}
}

// checkFlood is the CFLOOD correctness gate: the source confirmed and
// every node holds the token.
func checkFlood(res *dynet.Result, err error, ms []dynet.Machine, wantRounds int) error {
	if err != nil {
		return err
	}
	if !res.Done {
		return fmt.Errorf("flood did not confirm")
	}
	if wantRounds > 0 && res.Rounds != wantRounds {
		return fmt.Errorf("flood took %d rounds, want %d", res.Rounds, wantRounds)
	}
	for v, m := range ms {
		if !flood.Informed(m) {
			return fmt.Errorf("source confirmed but node %d is uninformed", v)
		}
	}
	return nil
}

type floodOutcome struct {
	huge    *dynet.Result
	hugeErr error
	gap     []harness.GapRow
	gapErr  error
	elapsed time.Duration
}

// runFloodCase runs the huge flood, then the gap table; the elapsed time
// covers both calls. Building the N=10^5 machines and network is input
// generation and happens before the clock starts.
func runFloodCase(sz floodSizes, c floodCase) floodOutcome {
	var o floodOutcome
	e := sz.hugeEngine(c)
	t0 := time.Now()
	o.huge, o.hugeErr = e.RunFlood(2*floodD, dynet.StopNode(0))
	o.gap, o.gapErr = harness.GapTable(sz.Gap, gapTargetD, c.Gap)
	o.elapsed = time.Since(t0)
	o.hugeErr = checkFlood(o.huge, o.hugeErr, e.Machines, floodD)
	return o
}

func (o floodOutcome) rounds() int64 {
	var r int64
	if o.huge != nil {
		r += int64(o.huge.Rounds)
	}
	for _, row := range o.gap {
		r += int64(row.KnownRounds + row.UnknownRounds)
	}
	return r
}

func (o floodOutcome) check(sz floodSizes) []string {
	var bad []string
	if o.hugeErr != nil {
		bad = append(bad, "huge flood: "+o.hugeErr.Error())
	}
	if o.gapErr != nil {
		bad = append(bad, "gap table: "+o.gapErr.Error())
	} else if len(o.gap) != len(sz.Gap) {
		bad = append(bad, fmt.Sprintf("gap table has %d rows for %d sizes", len(o.gap), len(sz.Gap)))
	}
	for _, row := range o.gap {
		if !row.OutputsCorrect {
			bad = append(bad, fmt.Sprintf("gap table N=%d: outputs not correct", row.N))
		}
	}
	return bad
}

func runFlood(o opts) (*report, error) {
	sz := floodFull
	if o.tiny {
		sz = floodTiny
	}
	// Set-up: derive the first pass of inputs and warm up with one tiny
	// case; runSerial repeats it after every case.
	var first []floodCase
	var skipped int
	warm, _ := floodCaseAt(warmSeed, 0, floodTiny.Gap)
	var err error
	rep := &report{}
	setup := func(bool) error {
		first, skipped = floodFirstPass(o.seed, sz)
		if bad := runFloodCase(floodTiny, warm).check(floodTiny); len(bad) > 0 {
			return fmt.Errorf("warm-up: %v", bad)
		}
		return nil
	}
	rep.setup, err = setupReps(setupBefore, setup)
	if err != nil {
		return nil, err
	}
	rep.parts = map[string]interface{}{
		"sizes": sz, "first_pass": first, "known_d": floodD, "gap_target_d": gapTargetD,
	}
	caseAt := func(i int) floodCase {
		if i < len(first) {
			return first[i]
		}
		c, _ := floodCaseAt(o.seed, i, sz.Gap)
		return c
	}
	record := func(i int, out floodOutcome) {
		for _, b := range out.check(sz) {
			rep.fail("flood-huge case %d: %s", i, b)
		}
	}
	if o.trace {
		runFloodTraced(o, sz, caseAt, rep, record)
		rep.counts["uncertified_seeds_skipped"] = int64(skipped)
		return rep, nil
	}
	counts := map[string]int64{"uncertified_seeds_skipped": int64(skipped)}
	runSerial(o.budget(), sz.Cases, rep, func(i int) (time.Duration, float64) {
		out := runFloodCase(sz, caseAt(i))
		record(i, out)
		if i < sz.Cases {
			counts["rounds"] += out.rounds()
		}
		return out.elapsed, float64(out.rounds())
	}, setup)
	rep.counts = counts
	return rep, nil
}

// tracedFloodCase mirrors runFloodCase through the shims: the huge run
// with a timed DeltaAdversary, and the gap table's diameter
// certification and two floods per size with the harness's seeds. Like
// runFloodCase it times everything after building the huge inputs.
func tracedFloodCase(sz floodSizes, c floodCase, t *tally) (int64, time.Duration, error) {
	e := sz.hugeEngine(c)
	start := time.Now()
	res, err := t.runFlood(e, 2*floodD, dynet.StopNode(0))
	if err := checkFlood(res, err, e.Machines, floodD); err != nil {
		return 0, 0, fmt.Errorf("huge flood: %w", err)
	}
	rounds := int64(res.Rounds)
	for _, n := range sz.Gap {
		advSeed := c.Gap + uint64(n)
		t0 := time.Now()
		d, err := harness.MeasureDynamicDiameter(adversaries.BoundedDiameter(n, gapTargetD, n/2, advSeed), n, 6*gapTargetD+60)
		t.diam += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		for _, extra := range []map[string]int64{{flood.ExtraD: int64(d)}, nil} {
			inputs := make([]int64, n)
			inputs[0] = 1
			e := &dynet.Engine{
				Machines: dynet.NewMachines(flood.CFlood{}, n, inputs, c.Gap^uint64(n), extra),
				Adv:      adversaries.BoundedDiameter(n, gapTargetD, n/2, advSeed),
				Workers:  1,
			}
			res, err := t.runFlood(e, 4*n, dynet.StopNode(0))
			if err := checkFlood(res, err, e.Machines, 0); err != nil {
				return 0, 0, fmt.Errorf("gap N=%d: %w", n, err)
			}
			rounds += int64(res.Rounds)
		}
	}
	return rounds, time.Since(start), nil
}

// runFloodTraced runs fresh cases until the budget is spent, each once
// untraced as the reference and once through the shims. Exact counts are
// those of the first pass of sz.Cases cases; times are per pass.
func runFloodTraced(o opts, sz floodSizes, caseAt func(int) floodCase, rep *report, record func(int, floodOutcome)) {
	t := newTally()
	var refWall, tracedWall time.Duration
	var refRounds int64
	var mem memDelta
	var first map[string]int64
	start := time.Now()
	i := 0
	for ; i < sz.Cases || time.Since(start) < o.budget(); i++ {
		c := caseAt(i)
		var ref floodOutcome
		mem.add(measureMem(func() { ref = runFloodCase(sz, c) }))
		rep.attempted++
		record(i, ref)
		refWall += ref.elapsed
		refRounds += ref.rounds()

		rep.attempted++
		rounds, d, err := tracedFloodCase(sz, c, t)
		tracedWall += d
		if err != nil {
			rep.fail("flood-huge traced case %d: %v", i, err)
		} else if rounds != ref.rounds() {
			rep.fail("flood-huge traced case %d: rounds %d, untraced %d", i, rounds, ref.rounds())
		}
		if i == sz.Cases-1 {
			first = map[string]int64{
				"rounds":         t.counter("engine_rounds_total"),
				"messages":       t.counter("engine_messages_total"),
				"bits":           t.counter("engine_bits_total"),
				"floodfast_runs": t.counter("engine_floodfast_runs_total"),
				"runflood_calls": t.floodCalls,
				"diff_ops":       t.floodAdv.diffOps,
			}
		}
	}
	if n, calls := t.counter("engine_floodfast_runs_total"), t.floodCalls; n != calls {
		rep.fail("flood-huge: %d of %d RunFlood calls took the fast path", n, calls)
	}
	passes := float64(i) / float64(sz.Cases)
	m := map[string]float64{}
	t.fill(m, passes)
	m["dynet.rounds"] = float64(first["rounds"])
	m["dynet.messages"] = float64(first["messages"])
	m["dynet.bits"] = float64(first["bits"])
	m["dynet.floodfast_runs"] = float64(first["floodfast_runs"])
	m["adversaries.diff_ops"] = float64(first["diff_ops"])
	m["bench.rounds_per_s"] = ratio(float64(refRounds), refWall.Seconds())
	m["bench.trace_overhead_x"] = ratio(tracedWall.Seconds(), refWall.Seconds())
	fillRuntime(m, mem, refRounds, passes)
	rep.layers = m
	rep.counts = first
}
