package harness

import (
	"testing"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// TestBoundedDiameterCertifiesPastHorizon pins the adversary seeds (target
// diameter 4) whose first 6·4+60 = 84 rounds leave a start time open, so
// that the fixed horizon does not certify the diameter. boundedDiameter
// advances one more round and certifies; the diameter it returns is the
// one dynet.DynamicDiameter computes over that 85-round prefix.
func TestBoundedDiameterCertifiesPastHorizon(t *testing.T) {
	const target, horizon = 4, 6*4 + 60
	cases := []struct {
		n    int
		seed uint64
	}{
		{48, 12}, {48, 798}, {96, 113}, {128, 824}, {128, 877},
		{256, 640}, {256, 658}, {256, 762}, {256, 838},
	}
	for _, c := range cases {
		fresh := func() dynet.Adversary { return adversaries.BoundedDiameter(c.n, target, c.n/2, c.seed) }
		if _, err := MeasureDynamicDiameter(fresh(), c.n, horizon); err == nil {
			t.Errorf("n=%d seed %d: the %d-round horizon certifies, so the seed no longer needs the extension", c.n, c.seed, horizon)
		}
		d, err := boundedDiameter(c.n, target, c.seed)
		if err != nil {
			t.Errorf("n=%d seed %d: %v", c.n, c.seed, err)
			continue
		}
		adv, actions := fresh(), make([]dynet.Action, c.n)
		graphs := make([]*graph.Graph, horizon+1)
		for r := range graphs {
			graphs[r] = adv.Topology(r+1, actions).Clone()
		}
		if _, exact := dynet.DynamicDiameter(graphs[:horizon]); exact {
			t.Errorf("n=%d seed %d: the reference certifies the %d-round prefix", c.n, c.seed, horizon)
		}
		want, exact := dynet.DynamicDiameter(graphs)
		if !exact || d != want {
			t.Errorf("n=%d seed %d: D = %d, reference over %d rounds = %d (exact %v)", c.n, c.seed, d, len(graphs), want, exact)
		}
	}
}

// TestGapTableSeedPastHorizon runs a whole sweep cell on one of those
// seeds: root seed 696 measures n=128 under adversary seed 696+128 = 824.
func TestGapTableSeedPastHorizon(t *testing.T) {
	rows, err := Sweep{Workers: 1}.GapTable([]int{128}, 4, 696)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].OutputsCorrect || rows[0].D < 1 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestBoundedDiameterLimit: a diameter that no prefix within the limit
// certifies is an error naming the limit.
func TestBoundedDiameterLimit(t *testing.T) {
	if _, err := measureDiameter(adversaries.RotatingStar(12), 12, 4, 8); err == nil {
		t.Fatal("an 8-round prefix certified the rotating star's diameter 11")
	}
}
