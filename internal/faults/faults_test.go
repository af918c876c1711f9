package faults

import (
	"testing"
)

func mustPlan(t *testing.T, s Spec) *Plan {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Drop: -0.1},
		{Dup: 1.5},
		{Corrupt: -1},
		{Crash: 2},
		{EdgeCut: -0.01},
		{MeanDown: -3},
		{MeanDown: 0.5},
		{Outages: []Outage{{Node: -1, From: 1, Until: 2}}},
		{Outages: []Outage{{Node: 0, From: 0, Until: 2}}},
		{Outages: []Outage{{Node: 0, From: 5, Until: 4}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v): Validate accepted it", i, s)
		}
		if _, err := NewPlan(s); err == nil {
			t.Errorf("spec %d (%+v): NewPlan accepted it", i, s)
		}
	}
	good := []Spec{
		{},
		{Drop: 1, Dup: 1, Corrupt: 1, Crash: 1, EdgeCut: 1},
		{Crash: 0.01, MeanDown: 1},
		{Outages: []Outage{{Node: 0, From: 1, Until: 1}}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
	}
}

func TestSpecZeroAndLabel(t *testing.T) {
	var zero Spec
	if !zero.Zero() {
		t.Error("zero Spec not Zero")
	}
	if got := zero.Label(); got != "none" {
		t.Errorf("zero label = %q", got)
	}
	// Seed and MeanDown alone do not make a Spec inject anything.
	if !(Spec{Seed: 7, MeanDown: 5}).Zero() {
		t.Error("seed/meandown-only Spec not Zero")
	}
	s := Spec{Drop: 0.05, Crash: 0.01}
	if s.Zero() {
		t.Error("faulty Spec reported Zero")
	}
	if got := s.Label(); got != "drop=0.05,crash=0.01" {
		t.Errorf("label = %q", got)
	}
	if got := (Spec{Outages: []Outage{{Node: 1, From: 2, Until: 3}}}).Label(); got != "outages=1" {
		t.Errorf("outage label = %q", got)
	}
}

func TestEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan enabled")
	}
	if mustPlan(t, Spec{}).Enabled() {
		t.Error("zero plan enabled")
	}
	if !mustPlan(t, Spec{Drop: 0.1}).Enabled() {
		t.Error("drop plan disabled")
	}
}

func TestHasFaultFamilies(t *testing.T) {
	cases := []struct {
		spec                 Spec
		node, edge, delivery bool
	}{
		{Spec{Drop: 0.1}, false, false, true},
		{Spec{Dup: 0.1}, false, false, true},
		{Spec{Corrupt: 0.1}, false, false, true},
		{Spec{Crash: 0.1}, true, false, false},
		{Spec{Outages: []Outage{{Node: 0, From: 1, Until: 2}}}, true, false, false},
		{Spec{EdgeCut: 0.1}, false, true, false},
	}
	for i, c := range cases {
		p := mustPlan(t, c.spec)
		if p.HasNodeFaults() != c.node || p.HasEdgeFaults() != c.edge || p.HasDeliveryFaults() != c.delivery {
			t.Errorf("case %d: families (%v,%v,%v), want (%v,%v,%v)", i,
				p.HasNodeFaults(), p.HasEdgeFaults(), p.HasDeliveryFaults(), c.node, c.edge, c.delivery)
		}
	}
}

func TestScheduledOutages(t *testing.T) {
	// Overlapping and adjacent windows coalesce; Down is exact on the
	// merged boundaries.
	p := mustPlan(t, Spec{Outages: []Outage{
		{Node: 2, From: 10, Until: 14},
		{Node: 2, From: 12, Until: 20}, // overlaps the first
		{Node: 2, From: 21, Until: 25}, // adjacent: still one window
		{Node: 2, From: 40, Until: 41},
		{Node: 5, From: 1, Until: 3},
	}})
	for r := 1; r <= 50; r++ {
		want := (r >= 10 && r <= 25) || (r >= 40 && r <= 41)
		if got := p.Down(r, 2); got != want {
			t.Fatalf("node 2 round %d: down=%v, want %v", r, got, want)
		}
		if want5 := r >= 1 && r <= 3; p.Down(r, 5) != want5 {
			t.Fatalf("node 5 round %d: down=%v, want %v", r, p.Down(r, 5), want5)
		}
		if p.Down(r, 0) {
			t.Fatalf("node 0 round %d: down without any schedule", r)
		}
	}
	if p.Down(0, 2) || p.Down(-3, 2) || p.Down(10, -1) {
		t.Error("out-of-domain queries reported down")
	}
}

// TestDownQueryOrderIndependence pins the memoized renewal process: the
// answer for (round, node) must not depend on the order queries arrive.
func TestDownQueryOrderIndependence(t *testing.T) {
	spec := Spec{Seed: 99, Crash: 0.05, MeanDown: 6}
	const rounds, nodes = 400, 8

	forward := mustPlan(t, spec)
	var seq []bool
	for r := 1; r <= rounds; r++ {
		for v := 0; v < nodes; v++ {
			seq = append(seq, forward.Down(r, v))
		}
	}

	backward := mustPlan(t, spec)
	// Query the far future first, then walk back.
	for v := nodes - 1; v >= 0; v-- {
		backward.Down(rounds, v)
	}
	i := 0
	for r := 1; r <= rounds; r++ {
		for v := 0; v < nodes; v++ {
			if backward.Down(r, v) != seq[i] {
				t.Fatalf("round %d node %d: answer depends on query order", r, v)
			}
			i++
		}
	}
}

func TestCrashProcessProducesOutages(t *testing.T) {
	p := mustPlan(t, Spec{Seed: 5, Crash: 0.1, MeanDown: 4})
	downRounds := 0
	const rounds = 2000
	for r := 1; r <= rounds; r++ {
		if p.Down(r, 0) {
			downRounds++
		}
	}
	// Expected availability: mean up-time 1/0.1 = 10, mean down-time 4,
	// so ~29% of rounds down. Accept a wide band.
	frac := float64(downRounds) / rounds
	if frac < 0.10 || frac > 0.55 {
		t.Errorf("down fraction %.3f outside plausible band for crash=0.1 meandown=4", frac)
	}
	// MeanDown defaults when unset.
	if got := mustPlan(t, Spec{Crash: 0.5}).Spec().MeanDown; got != DefaultMeanDown {
		t.Errorf("defaulted MeanDown = %v, want %v", got, DefaultMeanDown)
	}
}

func TestDeliveryDeterminismAndRates(t *testing.T) {
	spec := Spec{Seed: 11, Drop: 0.3, Dup: 0.4, Corrupt: 0.5}
	a, b := mustPlan(t, spec), mustPlan(t, spec)
	const nbits = 64
	drops, dups, corrupts, total := 0, 0, 0, 0
	for r := 1; r <= 40; r++ {
		for from := 0; from < 6; from++ {
			for to := 0; to < 6; to++ {
				if from == to {
					continue
				}
				da := a.Delivery(r, from, to, nbits)
				if db := b.Delivery(r, from, to, nbits); da != db {
					t.Fatalf("r=%d %d->%d: same spec, different fates %+v vs %+v", r, from, to, da, db)
				}
				total++
				if da.Drop {
					drops++
					if da.Dup || da.FlipBit >= 0 {
						t.Fatalf("dropped copy also dup/corrupt: %+v", da)
					}
					continue
				}
				if da.Dup {
					dups++
				}
				if da.FlipBit >= 0 {
					corrupts++
					if da.FlipBit >= nbits {
						t.Fatalf("flip bit %d out of %d-bit payload", da.FlipBit, nbits)
					}
				}
			}
		}
	}
	within := func(name string, count, of int, p float64) {
		frac := float64(count) / float64(of)
		if frac < p-0.12 || frac > p+0.12 {
			t.Errorf("%s fraction %.3f far from rate %.2f (%d/%d)", name, frac, p, count, of)
		}
	}
	within("drop", drops, total, spec.Drop)
	within("dup", dups, total-drops, spec.Dup)
	within("corrupt", corrupts, total-drops, spec.Corrupt)
}

func TestDeliveryZeroBitsNeverCorrupts(t *testing.T) {
	p := mustPlan(t, Spec{Seed: 3, Corrupt: 1})
	for r := 1; r <= 50; r++ {
		if d := p.Delivery(r, 0, 1, 0); d.FlipBit != -1 {
			t.Fatalf("round %d: corrupted an empty payload: %+v", r, d)
		}
	}
}

// TestDeliveryAndCutEdgeAllocs pins the per-copy and per-edge coins to
// the stack. Not parallel: AllocsPerRun reads process-wide counts.
func TestDeliveryAndCutEdgeAllocs(t *testing.T) {
	p := mustPlan(t, Spec{Seed: 5, Drop: 0.2, Dup: 0.2, Corrupt: 0.5, EdgeCut: 0.3})
	r := 0
	if avg := testing.AllocsPerRun(200, func() {
		r++
		p.Delivery(r, 3, 4, 40)
		p.CutEdge(r, 4, 3)
	}); avg != 0 {
		t.Errorf("Delivery+CutEdge allocate %v per call, want 0", avg)
	}
}

func TestCutEdgeSymmetricAndSeeded(t *testing.T) {
	spec := Spec{Seed: 21, EdgeCut: 0.5}
	a, b := mustPlan(t, spec), mustPlan(t, spec)
	diffSeed := mustPlan(t, Spec{Seed: 22, EdgeCut: 0.5})
	cuts, total, diff := 0, 0, 0
	for r := 1; r <= 60; r++ {
		for u := 0; u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				got := a.CutEdge(r, u, v)
				if got != a.CutEdge(r, v, u) {
					t.Fatalf("r=%d edge (%d,%d): cut decision not symmetric", r, u, v)
				}
				if got != b.CutEdge(r, u, v) {
					t.Fatalf("r=%d edge (%d,%d): same seed, different cut", r, u, v)
				}
				if got != diffSeed.CutEdge(r, u, v) {
					diff++
				}
				total++
				if got {
					cuts++
				}
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical cut schedules")
	}
	frac := float64(cuts) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("cut fraction %.3f far from 0.5", frac)
	}
}
