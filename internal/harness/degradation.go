package harness

import (
	"fmt"
	"strings"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
	"dyndiam/internal/stats"
	"dyndiam/internal/verify"
)

// The degradation sweeps measure how fast the paper's clean-model
// guarantees decay under injected faults: one row per fault Spec, each row
// an independent repeated-trial estimate of the protocol's error rate with
// a Wilson confidence interval. The zero Spec row runs the exact clean
// path (a zero Spec compiles to no Plan at all), so its leader column
// reproduces LeaderReliability bit for bit — the anchor the chaos gate
// compares against.

// DegradationConfig configures one degradation sweep.
type DegradationConfig struct {
	N          int
	TargetDiam int
	Trials     int // trials per row (per fault Spec)

	// Seed roots the fault-plan seeds. Trial t of row i injects from a
	// seed that is a pure function of (Seed, i, t); the Seed field of the
	// Specs themselves is ignored. Protocol and adversary coins use the
	// same per-trial seeds as LeaderReliability, independent of this.
	Seed uint64

	// Specs are the fault mixes to sweep, one row each, typically from
	// zero upward along one fault dimension.
	Specs []faults.Spec

	// CellBudget bounds each trial's wall-clock time (0 = unlimited).
	// Overrunning trials are abandoned and recorded as CellTimedOut.
	CellBudget time.Duration

	// Extra is passed to the protocol's machines (leader.ExtraNPrime, ...).
	Extra map[string]int64
}

// DegradationRow is one row of a degradation table: one fault Spec,
// Trials repeated runs.
type DegradationRow struct {
	Spec   faults.Spec
	Label  string // Spec.Label(): "none", "drop=0.05", ...
	Trials int

	// Errors counts trials that violated the protocol's correctness spec
	// plus trials that failed outright (non-termination, panic, wall-clock
	// timeout); ErrorRate is Errors/Trials with the 95% Wilson interval
	// [WilsonLo, WilsonHi].
	Errors             int
	ErrorRate          float64
	WilsonLo, WilsonHi float64

	// Rounds summarizes termination rounds over the trials that completed
	// (CellOK), whether or not their outputs were correct.
	Rounds stats.Summary

	// CellFailures lists the non-OK trials in ascending trial order —
	// the graceful-degradation record of what went wrong where.
	CellFailures []CellResult
}

// degTrial is one completed trial's contribution to a row.
type degTrial struct {
	rounds int
	wrong  bool // outputs violated the problem spec
}

// FaultTrialSeed derives the fault-plan seed for trial t of row i of a
// degradation sweep — a pure function of (root, i, t), exported so any
// single faulty trial can be replayed in isolation (see EXPERIMENTS.md and
// cmd/chaos -replay).
func FaultTrialSeed(root uint64, row, trial int) uint64 {
	return rng.New(root).Split('F', uint64(row), uint64(trial)).Uint64()
}

// degradationSweep drives one row per Spec, Trials graceful cells per row.
// All rows × trials run as one grid across s.WorkersFor(rows*trials), so
// a slow row does not hold back the cells of the next.
func (s Sweep) degradationSweep(cfg DegradationConfig, run func(row, trial int) (degTrial, error)) ([]DegradationRow, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("harness: degradation sweep needs at least one trial, got %d", cfg.Trials)
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("harness: degradation sweep needs at least one fault spec")
	}
	// A malformed Spec is a configuration error, not a cell outcome:
	// validate every row up front so it aborts the sweep once instead of
	// failing Trials cells.
	for i, spec := range cfg.Specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("harness: degradation row %d: %w", i, err)
		}
	}
	trials, outcomes := gracefulCells(s, len(cfg.Specs), cfg.Trials, cfg.CellBudget, run)
	rows := make([]DegradationRow, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		row := DegradationRow{Spec: spec, Label: spec.Label(), Trials: cfg.Trials}
		var rounds []float64
		for k := i * cfg.Trials; k < (i+1)*cfg.Trials; k++ {
			if oc := outcomes[k]; oc.Outcome != CellOK {
				row.Errors++
				row.CellFailures = append(row.CellFailures, oc)
				continue
			}
			if trials[k].wrong {
				row.Errors++
			}
			rounds = append(rounds, float64(trials[k].rounds))
		}
		row.ErrorRate = float64(row.Errors) / float64(cfg.Trials)
		row.WilsonLo, row.WilsonHi = stats.Wilson(row.Errors, cfg.Trials, 1.96)
		row.Rounds = stats.Summarize(rounds)
		rows[i] = row
	}
	return rows, nil
}

// degradationProblems are the problems a degradation sweep runs, each
// with the horizon of its trials: the rounds after which a trial that has
// not terminated counts as NonTermination. A CFLOOD source confirms at
// round N−1 even without a known diameter, so a source that has not
// confirmed within 4N rounds never will; leader election runs under the
// sweep's round budget. No other problem has a proven horizon (a PFLOOD
// source, for one, waits 4·D·⌈log₂(N+1)⌉ rounds), so Degradation rejects
// it.
var degradationProblems = []struct {
	problem verify.Problem
	horizon func(s Sweep, n int) int
}{
	{verify.MustLookup("leader"), func(s Sweep, _ int) int { return s.budget() }},
	{verify.MustLookup("cflood"), func(_ Sweep, n int) int { return 4 * n }},
}

// DegradationProblems lists the problems Degradation sweeps.
func DegradationProblems() []string {
	names := make([]string, len(degradationProblems))
	for i, d := range degradationProblems {
		names[i] = d.problem.Name
	}
	return names
}

// degradationProblem returns the named problem's table row and the
// horizon of its trials on n nodes.
func (s Sweep) degradationProblem(name string, n int) (verify.Problem, int, error) {
	for _, d := range degradationProblems {
		if d.problem.Name == name {
			return d.problem, d.horizon(s, n), nil
		}
	}
	return verify.Problem{}, 0, fmt.Errorf("harness: no degradation sweep for problem %q (have %s)",
		name, strings.Join(DegradationProblems(), ", "))
}

// Degradation sweeps the named problem across fault Specs, on the
// bounded-diameter family; the problem is one of DegradationProblems. A
// trial errs when its outputs fail the problem's audit, or when it fails
// outright: an engine error, a panic, a wall-clock timeout, or no
// termination within the trial's horizon. Under faults a frozen leader
// candidate can stall the doubling schedule forever, and a crashed flood
// source misses its confirmation round; both are degradation data, not
// harness bugs. For the leader problem the zero-Spec row is identical to
// LeaderReliability with the same N, diameter, trials, and Extra.
func (s Sweep) Degradation(problem string, cfg DegradationConfig) ([]DegradationRow, error) {
	p, horizon, err := s.degradationProblem(problem, cfg.N)
	if err != nil {
		return nil, err
	}
	return s.degradationSweep(cfg, func(row, trial int) (degTrial, error) {
		inputs, ms, res, err := s.trialRun(p, horizon, cfg, row, trial, nil, nil)
		if err != nil {
			return degTrial{}, err
		}
		if !res.Done {
			return degTrial{}, NonTermination{Name: p.Name + " degradation", Cell: trial, Budget: horizon}
		}
		return degTrial{rounds: res.Rounds, wrong: p.Audit(inputs, ms, res) != nil}, nil
	})
}

// DegradationTrial re-runs trial `trial` of row `row` of the problem's
// Degradation sweep over cfg, with sink and reg attached to its engine.
// It is the run the sweep made for that cell, seeds and fault plan
// included, so a recorded failure can be replayed in isolation
// (cmd/chaos -replay). It returns the engine's result and error, unaudited.
func (s Sweep) DegradationTrial(problem string, cfg DegradationConfig, row, trial int, sink obs.Sink, reg *obs.Registry) (*dynet.Result, error) {
	p, horizon, err := s.degradationProblem(problem, cfg.N)
	if err != nil {
		return nil, err
	}
	_, _, res, err := s.trialRun(p, horizon, cfg, row, trial, sink, reg)
	return res, err
}

// trialRun makes the run of one degradation trial: problem p on a fresh
// bounded-diameter network, with the protocol and adversary seeds of
// ReliabilityTrialSeed(trial) and the row's fault Spec seeded by
// FaultTrialSeed, under the problem's termination rule for at most
// horizon rounds.
func (s Sweep) trialRun(p verify.Problem, horizon int, cfg DegradationConfig, row, trial int, sink obs.Sink, reg *obs.Registry) ([]int64, []dynet.Machine, *dynet.Result, error) {
	var plan *faults.Plan
	if spec := cfg.Specs[row]; !spec.Zero() {
		spec.Seed = FaultTrialSeed(cfg.Seed, row, trial)
		var err error
		if plan, err = faults.NewPlan(spec); err != nil {
			return nil, nil, nil, err
		}
	}
	seed := ReliabilityTrialSeed(trial)
	inputs, ms := p.Machines(cfg.N, seed, cfg.Extra)
	e := &dynet.Engine{
		Machines: ms, Adv: adversaries.BoundedDiameter(cfg.N, cfg.TargetDiam, cfg.N/2, seed),
		Plan: plan, Terminated: p.Terminated(), Obs: sink, Metrics: reg,
	}
	res, err := e.Run(horizon)
	return inputs, ms, res, err
}

// LeaderDegradation is Sweep{}.Degradation of the Section 7 leader
// election: a trial errs when any node outputs a wrong leader.
func LeaderDegradation(cfg DegradationConfig) ([]DegradationRow, error) {
	return Sweep{}.Degradation("leader", cfg)
}

// FormatDegradationTable renders degradation rows.
func FormatDegradationTable(name string, rows []DegradationRow) *Table {
	t := &Table{
		Caption: fmt.Sprintf("%s degradation: error rate vs fault rate (95%% Wilson)", name),
		Header:  []string{"faults", "trials", "errors", "rate", "wilson95", "rounds", "cell failures"},
	}
	for _, r := range rows {
		t.Add(r.Label, r.Trials, r.Errors,
			fmt.Sprintf("%.4f", r.ErrorRate),
			fmt.Sprintf("[%.4f,%.4f]", r.WilsonLo, r.WilsonHi),
			r.Rounds.String(), len(r.CellFailures))
	}
	return t
}
