package main

import (
	"fmt"
	"math"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/advsearch"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/harness"
	"dyndiam/internal/protocols/leader"
)

// leader-msg: Theorem 8 LEADERELECT on the message engine. One case is
// four calls, each through a public entry point: a LeaderSweep, a
// LeaderDegradation over drop and dup faults, a greedy leaderelect
// adversary search, and one large election at Engine.Workers=0.

const (
	leaderTargetD  = 4
	leaderNPrime   = 0.9
	leaderCPermill = 150
	// leaderBudget caps every election; Theorem 8 runs here end below
	// 4000 rounds, so hitting it is a failure, not a slow run.
	leaderBudget = 1 << 20
)

type leaderSizes struct {
	Sweep     []int `json:"sweep_n"`
	DegN      int   `json:"degradation_n"`
	DegTrials int   `json:"degradation_trials"`
	SearchN   int   `json:"search_n"`
	Restarts  int   `json:"search_restarts"`
	Steps     int   `json:"search_steps"`
	BigN      int   `json:"big_n"`
	Cases     int   `json:"cases"`
	// Wire is the traced run's distributed pass; see wire.go.
	Wire wireSizes `json:"wire"`
}

var (
	leaderFull = leaderSizes{Sweep: []int{48, 96, 128}, DegN: 32, DegTrials: 2, SearchN: 12, Restarts: 2, Steps: 4, BigN: 256, Cases: 4, Wire: wireFull}
	leaderTiny = leaderSizes{Sweep: []int{12}, DegN: 8, DegTrials: 1, SearchN: 6, Restarts: 1, Steps: 1, BigN: 16, Cases: 2, Wire: wireFull}
)

// degradationSpecs are the fault rows. Crash rows are left out: a
// crashed candidate can stall an election until the round budget.
var degradationSpecs = []faults.Spec{{}, {Drop: 0.05}, {Drop: 0.2}, {Dup: 0.1}}

// leaderCase holds one case's seeds.
type leaderCase struct {
	Sweep  uint64 `json:"sweep_seed"`
	Deg    uint64 `json:"degradation_seed"`
	Search uint64 `json:"search_seed"`
	Big    uint64 `json:"big_seed"`
}

// leaderCaseAt derives case i, skipping sweep seeds whose diameter the
// harness cannot certify; it returns how many it skipped.
func leaderCaseAt(seed uint64, i int, sizes []int) (leaderCase, int) {
	sweep, skipped := certifiedSeed(seed, "leader/sweep", i, sizes, leaderTargetD)
	return leaderCase{
		Sweep:  sweep,
		Deg:    derive(seed, "leader/deg", i),
		Search: derive(seed, "leader/search", i),
		Big:    derive(seed, "leader/big", i),
	}, skipped
}

// leaderFirstPass derives cases 0..K-1, the inputs of a run's first pass, and
// the number of seeds skipped for them.
func leaderFirstPass(seed uint64, sz leaderSizes) ([]leaderCase, int) {
	cs := make([]leaderCase, sz.Cases)
	total := 0
	for i := range cs {
		c, skipped := leaderCaseAt(seed, i, sz.Sweep)
		cs[i] = c
		total += skipped
	}
	return cs, total
}

func leaderExtra(n int) map[string]int64 {
	return map[string]int64{
		leader.ExtraNPrime:    int64(leaderNPrime * float64(n)),
		leader.ExtraCPermille: leaderCPermill,
	}
}

func (sz leaderSizes) degConfig(c leaderCase) harness.DegradationConfig {
	return harness.DegradationConfig{N: sz.DegN, TargetDiam: leaderTargetD, Trials: sz.DegTrials, Seed: c.Deg, Specs: degradationSpecs}
}

func (sz leaderSizes) searchConfig(c leaderCase) advsearch.Config {
	return advsearch.Config{
		Proto: advsearch.ProtoLeader, N: sz.SearchN, Mode: advsearch.ModeGreedy,
		Restarts: sz.Restarts, Steps: sz.Steps, Seed: c.Search,
	}
}

// bigEngine builds the large election; workers 0 is the dynsim default
// and selects the parallel stepper.
func (sz leaderSizes) bigEngine(c leaderCase, workers int) *dynet.Engine {
	n := sz.BigN
	return &dynet.Engine{
		Machines: dynet.NewMachines(leader.Protocol{}, n, make([]int64, n), c.Big, leaderExtra(n)),
		Adv:      adversaries.BoundedDiameter(n, leaderTargetD, n/2, c.Big),
		Workers:  workers,
	}
}

// leaderOutcome is what one untraced case produced.
type leaderOutcome struct {
	sweep   []harness.LeaderRow
	deg     []harness.DegradationRow
	search  *advsearch.Report
	big     *dynet.Result
	errs    [4]error
	elapsed time.Duration
}

// runLeaderCase makes the four calls of one case; the returned elapsed
// covers exactly them.
func runLeaderCase(sz leaderSizes, c leaderCase) leaderOutcome {
	var o leaderOutcome
	t0 := time.Now()
	o.sweep, o.errs[0] = harness.LeaderSweep(sz.Sweep, leaderTargetD, leaderNPrime, leaderCPermill, c.Sweep)
	o.deg, o.errs[1] = harness.LeaderDegradation(sz.degConfig(c))
	o.search, o.errs[2] = advsearch.Search(sz.searchConfig(c), nil, advsearch.Options{})
	o.big, o.errs[3] = sz.bigEngine(c, 0).Run(leaderBudget)
	o.elapsed = time.Since(t0)
	return o
}

// degRounds is the exact round total of a degradation row's completed
// trials; Rounds.Mean is their sum over their count.
func degRounds(r harness.DegradationRow) int64 {
	return int64(math.Round(r.Rounds.Mean * float64(r.Rounds.N)))
}

// caseRounds are the per-call round totals, in call order; the search
// reports evaluations, not rounds, so its slot is 0.
func (o leaderOutcome) caseRounds() [4]int64 {
	var r [4]int64
	for _, row := range o.sweep {
		r[0] += int64(row.Rounds)
	}
	for _, row := range o.deg {
		r[1] += degRounds(row)
	}
	if o.big != nil {
		r[3] = int64(o.big.Rounds)
	}
	return r
}

// check applies the correctness gate and returns the failures.
func (o leaderOutcome) check(sz leaderSizes) []string {
	var bad []string
	for i, err := range o.errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("call %d: %v", i, err))
		}
	}
	for _, row := range o.sweep {
		if !row.Correct {
			bad = append(bad, fmt.Sprintf("sweep N=%d: some node did not output N-1", row.N))
		}
	}
	if o.errs[0] == nil && len(o.sweep) != len(sz.Sweep) {
		bad = append(bad, fmt.Sprintf("sweep returned %d rows for %d sizes", len(o.sweep), len(sz.Sweep)))
	}
	for _, row := range o.deg {
		if row.Errors != 0 || len(row.CellFailures) != 0 {
			bad = append(bad, fmt.Sprintf("degradation %s: %d errors, %d cell failures", row.Label, row.Errors, len(row.CellFailures)))
		}
	}
	if o.search != nil && o.search.Evaluated != sz.Restarts*(sz.Steps+1) {
		bad = append(bad, fmt.Sprintf("search evaluated %d candidates, want %d", o.search.Evaluated, sz.Restarts*(sz.Steps+1)))
	}
	if o.big != nil {
		if !o.big.Done {
			bad = append(bad, "big election did not terminate")
		}
		for v, out := range o.big.Outputs {
			if out != int64(sz.BigN-1) {
				bad = append(bad, fmt.Sprintf("big election node %d output %d", v, out))
				break
			}
		}
	}
	return bad
}

func runLeader(o opts) (*report, error) {
	sz := leaderFull
	if o.tiny {
		sz = leaderTiny
	}
	// Set-up: derive the first pass of inputs and warm up with one tiny
	// case; runSerial repeats it after every case. Later cases are
	// derived between timed calls.
	var first []leaderCase
	var skipped int
	warm, _ := leaderCaseAt(warmSeed, 0, leaderTiny.Sweep)
	var err error
	rep := &report{}
	setup := func(bool) error {
		first, skipped = leaderFirstPass(o.seed, sz)
		if bad := runLeaderCase(leaderTiny, warm).check(leaderTiny); len(bad) > 0 {
			return fmt.Errorf("warm-up: %v", bad)
		}
		return nil
	}
	rep.setup, err = setupReps(setupBefore, setup)
	if err != nil {
		return nil, err
	}
	rep.parts = map[string]interface{}{
		"sizes": sz, "first_pass": first, "target_d": leaderTargetD,
		"nprime": leaderNPrime, "c_permille": leaderCPermill, "round_budget": leaderBudget,
	}
	caseAt := func(i int) leaderCase {
		if i < len(first) {
			return first[i]
		}
		c, _ := leaderCaseAt(o.seed, i, sz.Sweep)
		return c
	}
	record := func(i int, out leaderOutcome) {
		for _, b := range out.check(sz) {
			rep.fail("leader-msg case %d: %s", i, b)
		}
	}
	if o.trace {
		runLeaderTraced(o, sz, caseAt, rep, record)
		rep.counts["uncertified_seeds_skipped"] = int64(skipped)
		return rep, nil
	}
	counts := map[string]int64{"uncertified_seeds_skipped": int64(skipped)}
	runSerial(o.budget(), sz.Cases, rep, func(i int) (time.Duration, float64) {
		out := runLeaderCase(sz, caseAt(i))
		record(i, out)
		r := out.caseRounds()
		if i < sz.Cases {
			counts["rounds"] += r[0] + r[1] + r[3]
			if out.search != nil {
				counts["evals"] += int64(out.search.Evaluated)
				counts["improvements"] += int64(out.search.Improvements)
			}
		}
		return out.elapsed, float64(r[0] + r[1] + r[3])
	}, setup)
	rep.counts = counts
	return rep, nil
}
