package harness

import (
	"errors"
	"reflect"
	"testing"

	"dyndiam/internal/faults"
)

// TestLeaderDegradationZeroRowMatchesReliability pins the chaos gate's
// anchor: the zero-Spec degradation row runs the exact clean path, so its
// error count and round distribution reproduce LeaderReliability.
func TestLeaderDegradationZeroRowMatchesReliability(t *testing.T) {
	const n, diam, trials = 16, 4, 4
	rel, err := Sweep{}.LeaderReliability(n, diam, trials, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := LeaderDegradation(DegradationConfig{
		N: n, TargetDiam: diam, Trials: trials, Seed: 1,
		Specs: []faults.Spec{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Label != "none" || len(row.CellFailures) != 0 {
		t.Fatalf("zero row: %+v", row)
	}
	if row.Errors != rel.Errors || row.Trials != rel.Trials {
		t.Errorf("errors %d/%d, reliability %d/%d", row.Errors, row.Trials, rel.Errors, rel.Trials)
	}
	if !reflect.DeepEqual(row.Rounds, rel.Rounds) {
		t.Errorf("rounds %+v, reliability %+v", row.Rounds, rel.Rounds)
	}
}

// TestDegradationParallelEqualsSequential: degradation tables are pure
// functions of the config — identical at every Sweep.Workers setting, even
// with faults injected.
func TestDegradationParallelEqualsSequential(t *testing.T) {
	cfg := DegradationConfig{
		N: 12, TargetDiam: 3, Trials: 3, Seed: 7,
		Specs: []faults.Spec{{}, {Drop: 0.3}, {Crash: 0.05}},
	}
	run := func(workers int) []DegradationRow {
		// Crash faults stall some leader trials until the budget; 20000
		// rounds is far beyond a clean N=12 election.
		rows, err := Sweep{Workers: workers, Budget: 20000}.Degradation("leader", cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Error values are not comparable across runs; compare outcomes.
		for i := range rows {
			for j := range rows[i].CellFailures {
				rows[i].CellFailures[j].Err = nil
			}
		}
		return rows
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Errorf("degradation rows differ across worker counts:\nseq %+v\npar %+v", seq, par)
	}
}

// TestDegradationGridWorkersDeepEqual: the degradation sweeps run all
// rows × trials as one grid. Their rows, CellFailures and error values
// included, are DeepEqual at Workers 1, 4 and the zero value, and every
// failure names its trial within its row. The small round budget makes
// most leader trials report NonTermination; a source that stays down
// makes every CFLOOD trial of the last row miss its confirmation.
func TestDegradationGridWorkersDeepEqual(t *testing.T) {
	cfg := DegradationConfig{
		N: 12, TargetDiam: 3, Trials: 3, Seed: 5,
		Specs: []faults.Spec{{}, {Drop: 0.2}, {Outages: []faults.Outage{{Node: 0, From: 1, Until: 1 << 20}}}},
	}
	for _, problem := range []string{"leader", "cflood"} {
		var runs [][]DegradationRow
		for _, workers := range []int{1, 4, 0} {
			rows, err := Sweep{Workers: workers, Budget: 600}.Degradation(problem, cfg)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", problem, workers, err)
			}
			runs = append(runs, rows)
		}
		for _, par := range runs[1:] {
			if !reflect.DeepEqual(runs[0], par) {
				t.Errorf("%s rows differ across worker counts:\nseq %+v\npar %+v", problem, runs[0], par)
			}
		}
		nonTerm := 0
		for i, row := range runs[0] {
			for _, cf := range row.CellFailures {
				var nt NonTermination
				if errors.As(cf.Err, &nt) {
					nonTerm++
					if nt.Cell != cf.Cell {
						t.Errorf("%s row %d: NonTermination names cell %d, CellResult %d", problem, i, nt.Cell, cf.Cell)
					}
				}
				if cf.Cell < 0 || cf.Cell >= cfg.Trials {
					t.Errorf("%s row %d: failure names cell %d, want a trial index below %d", problem, i, cf.Cell, cfg.Trials)
				}
			}
		}
		if nonTerm == 0 {
			t.Errorf("%s: no trial reported NonTermination", problem)
		}
	}
}

// TestCrashRejoinGridParallelDeterminism closes the remaining parallel-
// determinism gap: crash/rejoin fault grids — scheduled outages with
// rejoin windows plus random crash/rejoin churn — must be bit-identical
// at Sweep.Workers 1 vs 8, INCLUDING the recorded error string of every
// failed cell. (TestDegradationParallelEqualsSequential nils the error
// values before comparing, so only the outcome codes had the guarantee;
// here the texts themselves are part of the contract, matching the
// distributed-equivalence proof in internal/wire which diffs error texts
// byte for byte.)
func TestCrashRejoinGridParallelDeterminism(t *testing.T) {
	cfg := DegradationConfig{
		N: 12, TargetDiam: 3, Trials: 4, Seed: 11,
		Specs: []faults.Spec{
			// Deterministic crash/rejoin: two overlapping scheduled outages.
			{Outages: []faults.Outage{
				{Node: 2, From: 1, Until: 4},
				{Node: 7, From: 3, Until: 6},
			}},
			// Random crash/rejoin churn.
			{Crash: 0.1, MeanDown: 2},
			// Churn compounded with message loss.
			{Crash: 0.05, MeanDown: 4, Drop: 0.1},
		},
	}
	// CellResult.Err is compared by text: distinct error instances with
	// equal messages are the same recorded failure.
	type failure struct {
		Cell    int
		Outcome CellOutcome
		Err     string
	}
	flatten := func(rows []DegradationRow) ([]DegradationRow, [][]failure) {
		fails := make([][]failure, len(rows))
		for i := range rows {
			for _, cf := range rows[i].CellFailures {
				f := failure{Cell: cf.Cell, Outcome: cf.Outcome}
				if cf.Err != nil {
					f.Err = cf.Err.Error()
				}
				fails[i] = append(fails[i], f)
			}
			rows[i].CellFailures = nil
		}
		return rows, fails
	}
	for _, problem := range []string{"leader", "cflood"} {
		run := func(workers int) ([]DegradationRow, [][]failure) {
			// Crash faults stall some leader trials until the budget.
			rows, err := Sweep{Workers: workers, Budget: 20000}.Degradation(problem, cfg)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", problem, workers, err)
			}
			return flatten(rows)
		}
		seqRows, seqFails := run(1)
		parRows, parFails := run(8)
		if !reflect.DeepEqual(seqRows, parRows) {
			t.Errorf("%s crash/rejoin grid differs across worker counts:\nseq %+v\npar %+v", problem, seqRows, parRows)
		}
		if !reflect.DeepEqual(seqFails, parFails) {
			t.Errorf("%s cell failures (with error texts) differ across worker counts:\nseq %+v\npar %+v", problem, seqFails, parFails)
		}
		// The grid must actually exercise the crash path: scheduled
		// outages or churn should perturb at least one row relative to a
		// wholly clean run (rounds or errors), otherwise this test would
		// pass vacuously on a no-op fault plan.
		perturbed := false
		for _, r := range seqRows {
			if r.Errors > 0 {
				perturbed = true
			}
		}
		if !perturbed {
			t.Logf("%s: no errored cells in the crash grid (still a valid determinism check)", problem)
		}
	}
}

// TestCFloodDegradationShape: the flooding sweep produces one row per
// Spec, a clean zero row, and degradation under total message loss.
func TestCFloodDegradationShape(t *testing.T) {
	rows, err := Sweep{}.Degradation("cflood", DegradationConfig{
		N: 10, TargetDiam: 3, Trials: 3, Seed: 5,
		Specs: []faults.Spec{{}, {Drop: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Errors != 0 {
		t.Errorf("clean cflood row errored: %+v", rows[0])
	}
	if rows[1].Errors != rows[1].Trials {
		t.Errorf("Drop=1 cflood row should fail every trial: %+v", rows[1])
	}
	for i, r := range rows {
		if r.WilsonLo < 0 || r.WilsonHi > 1 || r.WilsonLo > r.WilsonHi {
			t.Errorf("row %d: Wilson interval [%v,%v]", i, r.WilsonLo, r.WilsonHi)
		}
		if r.ErrorRate < r.WilsonLo-1e-9 || r.ErrorRate > r.WilsonHi+1e-9 {
			t.Errorf("row %d: rate %v outside its interval [%v,%v]", i, r.ErrorRate, r.WilsonLo, r.WilsonHi)
		}
	}
}

// TestDegradationRejectsBadConfig: malformed Specs and empty grids abort
// the sweep up front instead of failing every cell.
func TestDegradationRejectsBadConfig(t *testing.T) {
	bad := []DegradationConfig{
		{N: 8, TargetDiam: 2, Trials: 0, Specs: []faults.Spec{{}}},
		{N: 8, TargetDiam: 2, Trials: 2},
		{N: 8, TargetDiam: 2, Trials: 2, Specs: []faults.Spec{{Drop: -1}}},
	}
	for i, cfg := range bad {
		if _, err := LeaderDegradation(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDegradationRejectsUnprovenHorizon: only the problems whose trial
// horizon is proven sweep. A PFLOOD source confirms after 4·D·⌈log₂(N+1)⌉
// rounds, past CFLOOD's 4N horizon, so a pflood sweep would record every
// trial as a non-termination; it must be refused, as must an unknown name.
func TestDegradationRejectsUnprovenHorizon(t *testing.T) {
	cfg := DegradationConfig{N: 8, TargetDiam: 2, Trials: 1, Specs: []faults.Spec{{}}}
	for _, problem := range []string{"pflood", "consensus", "nosuch"} {
		if _, err := (Sweep{}).Degradation(problem, cfg); err == nil {
			t.Errorf("Degradation(%q) accepted", problem)
		}
		if _, err := (Sweep{}).DegradationTrial(problem, cfg, 0, 0, nil, nil); err == nil {
			t.Errorf("DegradationTrial(%q) accepted", problem)
		}
	}
	for _, problem := range DegradationProblems() {
		rows, err := (Sweep{}).Degradation(problem, cfg)
		if err != nil {
			t.Fatalf("Degradation(%q): %v", problem, err)
		}
		if rows[0].Errors != 0 {
			t.Errorf("clean %s row: %d errors, failures %v", problem, rows[0].Errors, rows[0].CellFailures)
		}
	}
}

// TestFaultTrialSeedStable pins the replay contract: the published seed
// derivation must never change, or EXPERIMENTS.md replay recipes break.
func TestFaultTrialSeedStable(t *testing.T) {
	a := FaultTrialSeed(1, 0, 0)
	if b := FaultTrialSeed(1, 0, 0); a != b {
		t.Fatal("not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for row := 0; row < 3; row++ {
		for trial := 0; trial < 3; trial++ {
			if row == 0 && trial == 0 {
				continue
			}
			s := FaultTrialSeed(1, row, trial)
			if seen[s] {
				t.Errorf("seed collision at row %d trial %d", row, trial)
			}
			seen[s] = true
		}
	}
}

// TestFormatDegradationTable smoke-renders the table.
func TestFormatDegradationTable(t *testing.T) {
	rows, err := LeaderDegradation(DegradationConfig{
		N: 10, TargetDiam: 3, Trials: 2, Seed: 1,
		Specs: []faults.Spec{{}, {Drop: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := FormatDegradationTable("leader", rows)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

// TestLeaderCrashesDoNotPanic: a node that is down at its COUNT1
// transition builds no sketch and must not read one at LOCK. Crash
// faults at rate 0.2 hit that path; every failed trial is a fault-induced
// error or a non-termination, never a panic.
func TestLeaderCrashesDoNotPanic(t *testing.T) {
	rows, err := Sweep{Budget: 200000}.Degradation("leader", DegradationConfig{
		N: 14, TargetDiam: 4, Seed: 1, Trials: 4,
		Specs: []faults.Spec{{Crash: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, cf := range row.CellFailures {
			if cf.Outcome == CellPanicked {
				t.Errorf("%s trial %d panicked: %v", row.Label, cf.Cell, cf.Err)
			}
		}
	}
}
