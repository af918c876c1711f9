package harness

import (
	"strings"
	"testing"

	"dyndiam/internal/protocols/consensus"
)

func TestLeaderReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated elections are slow")
	}
	rel, err := Sweep{}.LeaderReliability(20, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Trials != 8 {
		t.Fatalf("trials = %d", rel.Trials)
	}
	// Theorem 8 promises error <= 1/N; over 8 trials at N=20 we expect
	// zero errors (allow at most one for estimator tail events).
	if rel.Errors > 1 {
		t.Errorf("error rate %.3f too high (%d/%d)", rel.ErrorRate, rel.Errors, rel.Trials)
	}
	if rel.Rounds.N != 8 || rel.Rounds.Mean <= 0 {
		t.Errorf("rounds summary broken: %+v", rel.Rounds)
	}
	out := FormatReliability("leader", rel)
	if !strings.Contains(out, "8 trials") {
		t.Errorf("render: %s", out)
	}
}

func TestConsensusReductionOracleCustom(t *testing.T) {
	// The generalized entry point with an explicit oracle must behave
	// like the default when given the same configuration.
	rows, err := Sweep{}.ConsensusReductionOracle([]int{201}, 3,
		consensus.KnownD{}, map[string]int64{consensus.ExtraRounds: 75})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.LemmaViolations != 0 {
			t.Errorf("lemma violations: %d", r.LemmaViolations)
		}
		if r.Disj == 0 && !r.AgreementViolated {
			t.Error("0-instance without agreement violation")
		}
	}
}

func TestLeaderPhases(t *testing.T) {
	pb, err := Sweep{}.LeaderPhases(20, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pb.WinnerPhases < 1 {
		t.Error("winner saw no phases")
	}
	if pb.Candidacies < 1 {
		t.Error("no candidacies recorded")
	}
	if pb.LocksAccepted < pb.N/2 {
		t.Errorf("only %d locks across %d nodes", pb.LocksAccepted, pb.N)
	}
	out := FormatPhaseBreakdown([]PhaseBreakdown{pb}).String()
	if !strings.Contains(out, "winner phases") {
		t.Errorf("render: %s", out)
	}
}
