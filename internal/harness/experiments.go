package harness

import (
	"fmt"
	"math"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/bitio"
	"dyndiam/internal/bitkernel"
	"dyndiam/internal/dynet"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/consensus"
	"dyndiam/internal/protocols/counting"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/protocols/leader"
	"dyndiam/internal/verify"
)

// sweepRoundBounds buckets whole-run round counts; wider than the engine's
// per-round bounds because leader elections run for millions of rounds.
// Every cell uses this one layout so merged histograms agree.
func sweepRoundBounds() []int64 {
	return []int64{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}
}

// MeasureDynamicDiameter drives the adversary (with all-receive action
// commitments) for horizon rounds and returns the exact dynamic diameter
// it produced, or an error if the horizon did not certify it.
//
// Topologies are streamed straight into a bitkernel.DiameterTracker — the
// incremental causal closure — so nothing is cloned or retained: the
// measurement holds O(n²/64) words per open start time (about D+1 of
// them), regardless of the horizon.
func MeasureDynamicDiameter(adv dynet.Adversary, n, horizon int) (int, error) {
	return measureDiameter(adv, n, horizon, horizon)
}

// measureDiameter is MeasureDynamicDiameter with room to run on: when the
// first horizon rounds do not certify the diameter, it keeps advancing
// the tracker one round at a time until they do, and fails only once
// limit rounds have not. Every round opens one more start time, but the
// tracker certifies as soon as the start times still open number fewer
// than the largest completed spread, which each late round brings closer.
func measureDiameter(adv dynet.Adversary, n, horizon, limit int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("harness: cannot measure diameter over %d nodes", n)
	}
	actions := make([]dynet.Action, n) // zero value is Receive
	tr := bitkernel.NewDiameterTracker(n)
	for r := 1; r <= limit; r++ {
		g := adv.Topology(r, actions)
		if g == nil || g.N() != n {
			return 0, fmt.Errorf("harness: round %d topology does not span the %d measured nodes", r, n)
		}
		tr.Advance(g)
		if r < horizon {
			continue
		}
		if d, exact := tr.Result(); exact {
			return d, nil
		}
	}
	d, _ := tr.Result()
	return d, fmt.Errorf("harness: horizon %d did not certify the diameter (lower bound %d)", limit, d)
}

// boundedDiameter measures the dynamic diameter of the bounded-diameter
// family every sweep runs on (n nodes, n/2 extra edges per round). It
// advances 6·targetDiam+60 rounds, then one round at a time until the
// diameter is certified, for at most 4n rounds in all (MODEL.md §3 says
// which start times the result covers).
func boundedDiameter(n, targetDiam int, seed uint64) (int, error) {
	horizon := 6*targetDiam + 60
	return measureDiameter(adversaries.BoundedDiameter(n, targetDiam, n/2, seed), n, horizon, max(horizon, 4*n))
}

// GapRow is one row of the E4 headline table.
type GapRow struct {
	N              int
	D              int // measured dynamic diameter of the network family
	KnownRounds    int
	KnownFR        float64 // flooding rounds = rounds / D
	UnknownRounds  int
	UnknownFR      float64
	LowerBoundFR   float64 // the Theorem 6 curve (N/log2 N)^(1/4)
	OutputsCorrect bool
}

// GapTable produces the E4 table: CFLOOD cost with known vs unknown
// diameter over a low-diameter dynamic network family, next to the
// Ω((N/log N)^¼) lower-bound curve for the unknown case.
//
//lint:pure
func (s Sweep) GapTable(sizes []int, targetDiam int, seed uint64) ([]GapRow, error) {
	p := verify.MustLookup("cflood")
	rows := make([]GapRow, len(sizes))
	err := s.ForEachCell(len(sizes), func(i int, reg *obs.Registry) error {
		n := sizes[i]
		makeAdv := func() dynet.Adversary {
			return adversaries.BoundedDiameter(n, targetDiam, n/2, seed+uint64(n))
		}
		d, err := boundedDiameter(n, targetDiam, seed+uint64(n))
		if err != nil {
			return err
		}
		row := GapRow{N: n, D: d}
		row.LowerBoundFR = math.Pow(float64(n)/math.Log2(float64(n)), 0.25)

		run := func(extra map[string]int64) (int, bool, error) {
			inputs, ms := p.Machines(n, seed^uint64(n), extra)
			e := &dynet.Engine{Machines: ms, Adv: makeAdv(), Metrics: reg}
			// CFlood qualifies for the word-packed fast path; RunFlood
			// returns results bit-identical to the message path.
			res, err := e.RunFlood(4*n, dynet.StopNode(p.TermNode))
			if err != nil || !res.Done {
				return 0, false, fmt.Errorf("harness: cflood did not confirm: %v", err)
			}
			return res.Rounds, p.Audit(inputs, ms, res) == nil, nil
		}

		known, okKnown, err := run(map[string]int64{flood.ExtraD: int64(d)})
		if err != nil {
			return err
		}
		unknown, okUnknown, err := run(nil) // pessimistic D = N-1
		if err != nil {
			return err
		}
		row.KnownRounds, row.UnknownRounds = known, unknown
		row.KnownFR = float64(known) / float64(d)
		row.UnknownFR = float64(unknown) / float64(d)
		row.OutputsCorrect = okKnown && okUnknown
		rows[i] = row
		reg.Counter("sweep_cells_total").Add(1)
		reg.Histogram("gap_known_rounds", sweepRoundBounds()).Observe(int64(known))
		reg.Histogram("gap_unknown_rounds", sweepRoundBounds()).Observe(int64(unknown))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// GapTable is Sweep{}.GapTable.
func GapTable(sizes []int, targetDiam int, seed uint64) ([]GapRow, error) {
	return Sweep{}.GapTable(sizes, targetDiam, seed)
}

// FormatGapTable renders E4 rows.
func FormatGapTable(rows []GapRow) *Table {
	t := &Table{
		Caption: "E4: CFLOOD, known vs unknown diameter (flooding rounds = rounds/D)",
		Header:  []string{"N", "D", "known rnds", "known FR", "unknown rnds", "unknown FR", "LB curve (N/lgN)^1/4", "correct"},
	}
	for _, r := range rows {
		t.Add(r.N, r.D, r.KnownRounds, r.KnownFR, r.UnknownRounds, r.UnknownFR, r.LowerBoundFR, r.OutputsCorrect)
	}
	return t
}

// LeaderRow is one row of the E3 (Theorem 8) sweep.
type LeaderRow struct {
	N             int
	D             int
	Rounds        int
	FloodingRnds  float64
	PerDLog2      float64 // rounds / (D+logN) / log^2 N — the claimed scaling
	Correct       bool
	FailedLockers int
}

// LeaderSweep measures the Section 7 protocol across sizes on a
// low-diameter dynamic family, with N' skewed by nprimeFactor (e.g. 0.85)
// under margin cPermille.
//
//lint:pure
func (s Sweep) LeaderSweep(sizes []int, targetDiam int, nprimeFactor float64, cPermille int64, seed uint64) ([]LeaderRow, error) {
	p := verify.MustLookup("leader")
	rows := make([]LeaderRow, len(sizes))
	err := s.ForEachCell(len(sizes), func(i int, reg *obs.Registry) error {
		n := sizes[i]
		adv := adversaries.BoundedDiameter(n, targetDiam, n/2, seed+uint64(n))
		d, err := boundedDiameter(n, targetDiam, seed+uint64(n))
		if err != nil {
			return err
		}
		extra := map[string]int64{
			leader.ExtraNPrime:    int64(nprimeFactor * float64(n)),
			leader.ExtraCPermille: cPermille,
		}
		inputs, ms := p.Machines(n, seed^uint64(3*n), extra)
		e := &dynet.Engine{Machines: ms, Adv: adv, Terminated: p.Terminated(), Metrics: reg}
		budget := s.budget()
		res, err := e.Run(budget)
		if err != nil {
			return err
		}
		if !res.Done {
			return NonTermination{Name: fmt.Sprintf("leaderelect N=%d", n), Cell: i, Budget: budget}
		}
		failed := 0
		for _, m := range ms {
			failed += leader.FailedCandidacies(m)
		}
		logN := math.Log2(float64(n))
		rows[i] = LeaderRow{
			N:             n,
			D:             d,
			Rounds:        res.Rounds,
			FloodingRnds:  float64(res.Rounds) / float64(d),
			PerDLog2:      float64(res.Rounds) / (float64(d) + logN) / (logN * logN),
			Correct:       p.Audit(inputs, ms, res) == nil,
			FailedLockers: failed,
		}
		reg.Counter("sweep_cells_total").Add(1)
		reg.Counter("leader_lock_rollbacks_total").Add(int64(failed))
		reg.Histogram("leader_rounds", sweepRoundBounds()).Observe(int64(res.Rounds))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// LeaderSweep is Sweep{}.LeaderSweep.
func LeaderSweep(sizes []int, targetDiam int, nprimeFactor float64, cPermille int64, seed uint64) ([]LeaderRow, error) {
	return Sweep{}.LeaderSweep(sizes, targetDiam, nprimeFactor, cPermille, seed)
}

// FormatLeaderTable renders E3 rows.
func FormatLeaderTable(rows []LeaderRow) *Table {
	t := &Table{
		Caption: "E3: Theorem 8 LEADERELECT (unknown D, N' within 1/3-c): rounds scale with D*polylog(N), not N",
		Header:  []string{"N", "D", "rounds", "flooding rnds", "rnds/((D+lgN)lg^2N)", "correct", "rollbacks"},
	}
	for _, r := range rows {
		t.Add(r.N, r.D, r.Rounds, r.FloodingRnds, r.PerDLog2, r.Correct, r.FailedLockers)
	}
	return t
}

// EstimateRow is one row of E5.
type EstimateRow struct {
	N       int
	K       int
	D       int
	Rounds  int
	MeanErr float64 // mean relative error of per-node estimates
	MaxErr  float64
}

// EstimateSweep measures EstimateN accuracy across sizes and copy counts
// on a low-diameter dynamic family (E5: obtaining N' with known D in
// O(log N) flooding rounds).
//
//lint:pure
func (s Sweep) EstimateSweep(sizes, ks []int, targetDiam int, seed uint64) ([]EstimateRow, error) {
	p := verify.MustLookup("estimate")
	rows := make([]EstimateRow, len(sizes)*len(ks))
	err := s.ForEachCell(len(rows), func(i int, reg *obs.Registry) error {
		// Cell (n, k); the diameter measurement repeats per k but is a
		// pure function of (n, seed), so every k-cell of one n sees the
		// same d the sequential sweep computed once.
		n, k := sizes[i/len(ks)], ks[i%len(ks)]
		d, err := boundedDiameter(n, targetDiam, seed+uint64(n))
		if err != nil {
			return err
		}
		adv := adversaries.BoundedDiameter(n, targetDiam, n/2, seed+uint64(n))
		w := bitio.WidthFor(n + 1)
		rounds := 4 * k * (d + w)
		_, ms := p.Machines(n, seed+uint64(k), map[string]int64{
			counting.ExtraD: int64(d), counting.ExtraK: int64(k),
			counting.ExtraRounds: int64(rounds),
		})
		e := &dynet.Engine{Machines: ms, Adv: adv, Metrics: reg}
		res, err := e.Run(rounds + 10)
		if err != nil || !res.Done {
			return fmt.Errorf("harness: estimate run failed: %v", err)
		}
		var sum, max float64
		for _, out := range res.Outputs {
			rel := math.Abs(float64(out)-float64(n)) / float64(n)
			sum += rel
			if rel > max {
				max = rel
			}
		}
		rows[i] = EstimateRow{
			N: n, K: k, D: d, Rounds: res.Rounds,
			MeanErr: sum / float64(n), MaxErr: max,
		}
		reg.Counter("sweep_cells_total").Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatEstimateTable renders E5 rows.
func FormatEstimateTable(rows []EstimateRow) *Table {
	t := &Table{
		Caption: "E5: estimating N with known D (exponential-minima sketches): error shrinks with k",
		Header:  []string{"N", "k", "D", "rounds", "mean rel err", "max rel err"},
	}
	for _, r := range rows {
		t.Add(r.N, r.K, r.D, r.Rounds, r.MeanErr, r.MaxErr)
	}
	return t
}

// MajorityRow is one row of E6.
type MajorityRow struct {
	N           int
	HolderFrac  float64 // fraction of nodes holding value 1
	Claims      int     // value-1 holders claiming majority
	FalseClaims int     // claims that are unsound (holder fraction <= 1/2)
}

// MajoritySweep measures the one-sided majority counter (E6) across holder
// fractions.
//
//lint:pure
func (s Sweep) MajoritySweep(n int, fracs []float64, targetDiam int, seed uint64) ([]MajorityRow, error) {
	d, err := boundedDiameter(n, targetDiam, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]MajorityRow, len(fracs))
	cellErr := s.ForEachCell(len(fracs), func(i int, reg *obs.Registry) error {
		f := fracs[i]
		holders := int(f * float64(n))
		inputs := make([]int64, n)
		for v := 0; v < holders; v++ {
			inputs[v] = 1
		}
		adv := adversaries.BoundedDiameter(n, targetDiam, n/2, seed)
		ms := dynet.NewMachines(counting.MajorityProbe{}, n, inputs, seed+uint64(holders), map[string]int64{
			counting.ExtraD: int64(d), counting.ExtraK: 96,
		})
		e := &dynet.Engine{Machines: ms, Adv: adv, Metrics: reg}
		res, err := e.Run(10000000)
		if err != nil || !res.Done {
			return fmt.Errorf("harness: majority probe failed: %v", err)
		}
		row := MajorityRow{N: n, HolderFrac: f}
		for v := 0; v < holders; v++ {
			if res.Outputs[v] == 1 {
				row.Claims++
				if f <= 0.5 {
					row.FalseClaims++
				}
			}
		}
		rows[i] = row
		reg.Counter("sweep_cells_total").Add(1)
		reg.Counter("majority_claims_total").Add(int64(row.Claims))
		reg.Counter("majority_false_claims_total").Add(int64(row.FalseClaims))
		return nil
	})
	if cellErr != nil {
		return nil, cellErr
	}
	return rows, nil
}

// FormatMajorityTable renders E6 rows.
func FormatMajorityTable(rows []MajorityRow) *Table {
	t := &Table{
		Caption: "E6: one-sided majority counting: claims only above 1/2, none below",
		Header:  []string{"N", "holder frac", "claims", "unsound claims"},
	}
	for _, r := range rows {
		t.Add(r.N, r.HolderFrac, r.Claims, r.FalseClaims)
	}
	return t
}

// ConsensusGapRow compares known-D consensus and the unknown-D Section 7
// route at one size (part of E4's protocol family coverage).
type ConsensusGapRow struct {
	N, D          int
	KnownRounds   int
	ViaLeaderRnds int
	BothCorrect   bool
}

// ConsensusGap runs consensus.KnownD and consensus.ViaLeader side by side.
//
//lint:pure
func (s Sweep) ConsensusGap(sizes []int, targetDiam int, seed uint64) ([]ConsensusGapRow, error) {
	known := verify.MustLookup("consensus")
	viaLeader := verify.MustLookup("vialeader")
	rows := make([]ConsensusGapRow, len(sizes))
	err := s.ForEachCell(len(sizes), func(i int, reg *obs.Registry) error {
		n := sizes[i]
		d, err := boundedDiameter(n, targetDiam, seed+uint64(n))
		if err != nil {
			return err
		}

		run := func(p verify.Problem, extra map[string]int64) (int, bool, error) {
			inputs, ms := p.Machines(n, seed+uint64(n), extra)
			e := &dynet.Engine{
				Machines:   ms,
				Adv:        adversaries.BoundedDiameter(n, targetDiam, n/2, seed+uint64(n)),
				Terminated: p.Terminated(),
				Metrics:    reg,
			}
			res, err := e.Run(s.budget())
			if err != nil {
				return 0, false, fmt.Errorf("harness: consensus failed: %v", err)
			}
			if !res.Done {
				return 0, false, NonTermination{Name: fmt.Sprintf("consensus N=%d", n), Cell: i, Budget: s.budget()}
			}
			return res.Rounds, p.Audit(inputs, ms, res) == nil, nil
		}

		kRounds, kOK, err := run(known, map[string]int64{consensus.ExtraD: int64(d)})
		if err != nil {
			return err
		}
		vRounds, vOK, err := run(viaLeader, nil)
		if err != nil {
			return err
		}
		rows[i] = ConsensusGapRow{
			N: n, D: d, KnownRounds: kRounds, ViaLeaderRnds: vRounds,
			BothCorrect: kOK && vOK,
		}
		reg.Counter("sweep_cells_total").Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatConsensusGapTable renders ConsensusGap rows.
func FormatConsensusGapTable(rows []ConsensusGapRow) *Table {
	t := &Table{
		Caption: "E4b: CONSENSUS, known D vs unknown D via Section 7 (good N')",
		Header:  []string{"N", "D", "known-D rounds", "via-leader rounds", "correct"},
	}
	for _, r := range rows {
		t.Add(r.N, r.D, r.KnownRounds, r.ViaLeaderRnds, r.BothCorrect)
	}
	return t
}
