package harness

import (
	"fmt"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/protocols/leader"
	"dyndiam/internal/rng"
	"dyndiam/internal/stats"
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
func (s Sweep) degradationSweep(cfg DegradationConfig, run func(trial int, plan *faults.Plan) (degTrial, error)) ([]DegradationRow, error) {
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
	trials, outcomes := gracefulCells(s, len(cfg.Specs), cfg.Trials, cfg.CellBudget, func(i, trial int) (degTrial, error) {
		var plan *faults.Plan
		if spec := cfg.Specs[i]; !spec.Zero() {
			spec.Seed = FaultTrialSeed(cfg.Seed, i, trial)
			p, err := faults.NewPlan(spec)
			if err != nil {
				return degTrial{}, err
			}
			plan = p
		}
		return run(trial, plan)
	})
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

// LeaderDegradation sweeps the Section 7 leader election across fault
// Specs. A trial errs when any node outputs a wrong leader, or when the
// run fails to terminate within the harness round budget (a frozen
// candidate can stall the doubling schedule forever — under faults that is
// a degradation datum, not a harness bug). The zero-Spec row is identical
// to LeaderReliability with the same N, diameter, trials, and Extra.
func (s Sweep) LeaderDegradation(cfg DegradationConfig) ([]DegradationRow, error) {
	budget := s.budget()
	return s.degradationSweep(cfg, func(trial int, plan *faults.Plan) (degTrial, error) {
		seed := ReliabilityTrialSeed(trial)
		adv := adversaries.BoundedDiameter(cfg.N, cfg.TargetDiam, cfg.N/2, seed)
		ms := dynet.NewMachines(leader.Protocol{}, cfg.N, make([]int64, cfg.N), seed, cfg.Extra)
		e := &dynet.Engine{Machines: ms, Adv: adv, Plan: plan}
		res, err := e.Run(budget)
		if err != nil {
			return degTrial{}, err
		}
		if !res.Done {
			return degTrial{}, NonTermination{Name: "leader degradation", Cell: trial, Budget: budget}
		}
		d := degTrial{rounds: res.Rounds}
		for _, out := range res.Outputs {
			if out != int64(cfg.N-1) {
				d.wrong = true
			}
		}
		return d, nil
	})
}

// LeaderDegradation is Sweep{}.LeaderDegradation.
func LeaderDegradation(cfg DegradationConfig) ([]DegradationRow, error) {
	return Sweep{}.LeaderDegradation(cfg)
}

// CFloodDegradation sweeps unknown-diameter confirmed flooding (the
// pessimistic D = N-1 baseline) across fault Specs. A trial errs when the
// source confirms while some node is uninformed or holds a corrupted
// token — exactly the CFLOOD correctness condition — or when the source
// never confirms within the 4N-round horizon (a crashed source misses its
// confirmation round).
func (s Sweep) CFloodDegradation(cfg DegradationConfig) ([]DegradationRow, error) {
	const token = 1
	horizon := 4 * cfg.N
	return s.degradationSweep(cfg, func(trial int, plan *faults.Plan) (degTrial, error) {
		seed := ReliabilityTrialSeed(trial)
		adv := adversaries.BoundedDiameter(cfg.N, cfg.TargetDiam, cfg.N/2, seed)
		inputs := make([]int64, cfg.N)
		inputs[0] = token
		ms := dynet.NewMachines(flood.CFlood{}, cfg.N, inputs, seed, cfg.Extra)
		e := &dynet.Engine{Machines: ms, Adv: adv, Plan: plan,
			Terminated: dynet.NodeDecided(0)}
		res, err := e.Run(horizon)
		if err != nil {
			return degTrial{}, err
		}
		if !res.Done {
			return degTrial{}, NonTermination{Name: "cflood degradation", Cell: trial, Budget: horizon}
		}
		d := degTrial{rounds: res.Rounds}
		for _, m := range ms {
			out, ok := m.Output()
			if !ok || out != token {
				d.wrong = true
			}
		}
		return d, nil
	})
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
