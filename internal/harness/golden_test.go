package harness

import (
	"reflect"
	"testing"
)

// The goldens below were captured from the pre-CSR, sequential-only
// implementation of these sweeps. Exact equality (floats included) is the
// point: the graph-core rewrite and the parallel cell scheduler both claim
// bit-identical results, and these rows are the committed witness.

func TestGapTableGolden(t *testing.T) {
	rows, err := GapTable([]int{32, 48}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []GapRow{
		{N: 32, D: 7, KnownRounds: 7, KnownFR: 1, UnknownRounds: 31,
			UnknownFR: 4.428571428571429, LowerBoundFR: 1.5905414575341013, OutputsCorrect: true},
		{N: 48, D: 7, KnownRounds: 7, KnownFR: 1, UnknownRounds: 47,
			UnknownFR: 6.714285714285714, LowerBoundFR: 1.7122029618469201, OutputsCorrect: true},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("GapTable rows changed:\n got %+v\nwant %+v", rows, want)
	}
}

func TestLeaderSweepGolden(t *testing.T) {
	rows, err := LeaderSweep([]int{20}, 4, 0.9, 150, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := []LeaderRow{
		{N: 20, D: 6, Rounds: 776, FloodingRnds: 129.33333333333334,
			PerDLog2: 4.0248140248118665, Correct: true, FailedLockers: 0},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("LeaderSweep rows changed:\n got %+v\nwant %+v", rows, want)
	}
}

func TestEstimateSweepGolden(t *testing.T) {
	rows, err := Sweep{}.EstimateSweep([]int{24, 32}, []int{16}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []EstimateRow{
		{N: 24, K: 16, D: 7, Rounds: 768, MeanErr: 0.04166666666666665, MaxErr: 0.041666666666666664},
		{N: 32, K: 16, D: 7, Rounds: 832, MeanErr: 0.125, MaxErr: 0.125},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("EstimateSweep rows changed:\n got %+v\nwant %+v", rows, want)
	}
}

func TestMajoritySweepGolden(t *testing.T) {
	rows, err := Sweep{}.MajoritySweep(24, []float64{0.4, 0.8}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []MajorityRow{
		{N: 24, HolderFrac: 0.4, Claims: 0, FalseClaims: 0},
		{N: 24, HolderFrac: 0.8, Claims: 19, FalseClaims: 0},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("MajoritySweep rows changed:\n got %+v\nwant %+v", rows, want)
	}
}

func TestConsensusGapGolden(t *testing.T) {
	rows, err := Sweep{}.ConsensusGap([]int{16}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []ConsensusGapRow{
		{N: 16, D: 6, KnownRounds: 165, ViaLeaderRnds: 774, BothCorrect: true},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("ConsensusGap rows changed:\n got %+v\nwant %+v", rows, want)
	}
}

// TestSweepsParallelEqualSequential runs every sweep at 1 worker and at
// several worker counts (including more workers than cells) and requires
// deep equality — per-cell seeds are pure functions of (sweep seed, cell),
// so the schedule must not matter.
func TestSweepsParallelEqualSequential(t *testing.T) {
	type sweep struct {
		name string
		run  func(Sweep) (interface{}, error)
	}
	sweeps := []sweep{
		{"GapTable", func(s Sweep) (interface{}, error) {
			return s.GapTable([]int{24, 32, 48}, 4, 7)
		}},
		{"LeaderSweep", func(s Sweep) (interface{}, error) {
			return s.LeaderSweep([]int{16, 20}, 4, 0.9, 150, 11)
		}},
		{"EstimateSweep", func(s Sweep) (interface{}, error) {
			return s.EstimateSweep([]int{24, 32}, []int{8, 16}, 4, 5)
		}},
		{"MajoritySweep", func(s Sweep) (interface{}, error) {
			return s.MajoritySweep(24, []float64{0.4, 0.6, 0.8}, 4, 3)
		}},
		{"ConsensusGap", func(s Sweep) (interface{}, error) {
			return s.ConsensusGap([]int{14, 16}, 4, 9)
		}},
	}
	for _, s := range sweeps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			seq, err := s.run(Sweep{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 16} {
				par, err := s.run(Sweep{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d: rows differ from sequential:\n seq %+v\n par %+v", w, seq, par)
				}
			}
		})
	}
}

func TestTrialSeedsDeterministic(t *testing.T) {
	a := TrialSeeds(42, 8)
	b := TrialSeeds(42, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("TrialSeeds not deterministic")
	}
	// Prefix stability: seeds for the first k trials must not depend on
	// the total trial count, so partial sweeps extend cleanly.
	c := TrialSeeds(42, 4)
	if !reflect.DeepEqual(a[:4], c) {
		t.Errorf("TrialSeeds prefix changed with trial count: %v vs %v", a[:4], c)
	}
	d := TrialSeeds(43, 8)
	if reflect.DeepEqual(a, d) {
		t.Error("different roots produced identical seed tapes")
	}
}
