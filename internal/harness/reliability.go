package harness

import (
	"fmt"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/leader"
	"dyndiam/internal/stats"
)

// Reliability is the outcome of a repeated-seed protocol evaluation.
type Reliability struct {
	Trials    int
	Errors    int // runs whose outputs violated the problem spec
	ErrorRate float64
	Rounds    stats.Summary // termination-round distribution
}

// ReliabilityTrialSeed is the public-coin and adversary seed of
// reliability trial t. It is shared with the degradation sweeps so their
// zero-fault rows reproduce the clean reliability runs bit for bit.
func ReliabilityTrialSeed(trial int) uint64 {
	return uint64(trial)*2654435761 + 1
}

// LeaderReliability runs the Section 7 leader election across trials
// independent public-coin seeds on a fresh low-diameter dynamic network
// each time, and reports the empirical error rate (Theorem 8 promises
// error <= 1/N) and the termination-round distribution.
func (s Sweep) LeaderReliability(n, targetDiam, trials int, extra map[string]int64) (Reliability, error) {
	rel := Reliability{Trials: trials}
	rounds := make([]float64, trials)
	failed := make([]bool, trials)
	budget := s.budget()
	err := s.ForEachCell(trials, func(trial int, reg *obs.Registry) error {
		seed := ReliabilityTrialSeed(trial)
		adv := adversaries.BoundedDiameter(n, targetDiam, n/2, seed)
		ms := dynet.NewMachines(leader.Protocol{}, n, make([]int64, n), seed, extra)
		e := &dynet.Engine{Machines: ms, Adv: adv, Metrics: reg}
		res, err := e.Run(budget)
		if err != nil {
			return err
		}
		if !res.Done {
			return NonTermination{Name: "leader reliability", Cell: trial, Budget: budget}
		}
		for _, out := range res.Outputs {
			if out != int64(n-1) {
				failed[trial] = true
			}
		}
		rounds[trial] = float64(res.Rounds)
		return nil
	})
	if err != nil {
		return rel, err
	}
	for _, f := range failed {
		if f {
			rel.Errors++
		}
	}
	rel.ErrorRate = float64(rel.Errors) / float64(trials)
	rel.Rounds = stats.Summarize(rounds)
	return rel, nil
}

// FormatReliability renders a Reliability result.
func FormatReliability(name string, r Reliability) string {
	return fmt.Sprintf("%s: %d trials, %d errors (rate %.4f), rounds %s",
		name, r.Trials, r.Errors, r.ErrorRate, r.Rounds)
}

// PhaseBreakdown aggregates the Section 7 protocol's internal counters over
// one run — how many doubling phases were needed, how many candidacies and
// rollbacks occurred, and how widely locks spread.
type PhaseBreakdown struct {
	N, D, Rounds  int
	WinnerPhases  int // phases the winner went through before declaring
	Candidacies   int // total across nodes
	Failures      int // rolled-back candidacies
	LocksAccepted int
	UnlocksSeen   int
}

// LeaderPhases runs one seeded election on a low-diameter dynamic network
// and reports its phase breakdown.
func (s Sweep) LeaderPhases(n, targetDiam int, seed uint64, extra map[string]int64) (PhaseBreakdown, error) {
	adv := adversaries.BoundedDiameter(n, targetDiam, n/2, seed)
	d, err := boundedDiameter(n, targetDiam, seed)
	if err != nil {
		return PhaseBreakdown{}, err
	}
	ms := dynet.NewMachines(leader.Protocol{}, n, make([]int64, n), seed, extra)
	e := &dynet.Engine{Machines: ms, Adv: adv}
	budget := s.budget()
	res, err := e.Run(budget)
	if err != nil {
		return PhaseBreakdown{}, err
	}
	if !res.Done {
		return PhaseBreakdown{}, NonTermination{Name: "leader phases", Budget: budget}
	}
	pb := PhaseBreakdown{N: n, D: d, Rounds: res.Rounds}
	for v, m := range ms {
		st, ok := leader.MachineStats(m)
		if !ok {
			return pb, fmt.Errorf("harness: node %d is not a leader machine", v)
		}
		pb.Candidacies += st.Candidacies
		pb.Failures += st.Failures
		pb.LocksAccepted += st.LocksAccepted
		pb.UnlocksSeen += st.UnlocksSeen
		if v == n-1 {
			pb.WinnerPhases = st.Phases
		}
	}
	return pb, nil
}

// FormatPhaseBreakdown renders PhaseBreakdown rows.
func FormatPhaseBreakdown(rows []PhaseBreakdown) *Table {
	t := &Table{
		Caption: "Section 7 phase structure: doubling D' until the counts complete",
		Header:  []string{"N", "D", "rounds", "winner phases", "candidacies", "rollbacks", "locks", "unlocks"},
	}
	for _, r := range rows {
		t.Add(r.N, r.D, r.Rounds, r.WinnerPhases, r.Candidacies, r.Failures, r.LocksAccepted, r.UnlocksSeen)
	}
	return t
}
