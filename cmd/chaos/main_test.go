package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dyndiam"
)

func TestGridPointsOrderAndCollapse(t *testing.T) {
	opts := options{
		protocols: []string{"leader", "cflood"},
		dims:      []string{"drop", "crash"},
		rates:     []float64{0, 0.1, 0.3},
	}
	got := gridPoints(opts)
	want := []gridPoint{
		{"leader", "none", 0},
		{"leader", "drop", 0.1}, {"leader", "drop", 0.3},
		{"leader", "crash", 0.1}, {"leader", "crash", 0.3},
		{"cflood", "none", 0},
		{"cflood", "drop", 0.1}, {"cflood", "drop", 0.3},
		{"cflood", "crash", 0.1}, {"cflood", "crash", 0.3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grid:\ngot  %v\nwant %v", got, want)
	}
	// Without a zero rate there is no clean anchor row.
	opts.rates = []float64{0.1}
	for _, pt := range gridPoints(opts) {
		if pt.dim == "none" {
			t.Errorf("unexpected anchor row %v without a zero rate", pt)
		}
	}
}

func TestSpecFor(t *testing.T) {
	cases := map[string]func(dyndiam.FaultSpec) float64{
		"drop":    func(s dyndiam.FaultSpec) float64 { return s.Drop },
		"dup":     func(s dyndiam.FaultSpec) float64 { return s.Dup },
		"corrupt": func(s dyndiam.FaultSpec) float64 { return s.Corrupt },
		"crash":   func(s dyndiam.FaultSpec) float64 { return s.Crash },
		"edgecut": func(s dyndiam.FaultSpec) float64 { return s.EdgeCut },
	}
	for _, dim := range []string{"drop", "dup", "corrupt", "crash", "edgecut"} {
		s, err := specFor(dim, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", dim, err)
		}
		if got := cases[dim](s); got != 0.25 {
			t.Errorf("%s: rate landed on the wrong field (%+v)", dim, s)
		}
	}
	if _, err := specFor("gamma-rays", 0.1); err == nil {
		t.Error("unknown dimension accepted")
	}
	// The grid's clean anchor: dimension "none" at rate 0 is the zero Spec.
	if s, err := specFor("none", 0); err != nil || !s.Zero() {
		t.Errorf("none/0 = (%+v, %v), want zero Spec", s, err)
	}
	if _, err := specFor("none", 0.1); err == nil {
		t.Error("none at a positive rate accepted")
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	cp := checkpointFile{Rows: map[string]jsonRow{
		"leader|drop|0.1": {Protocol: "leader", Dim: "drop", Rate: 0.1, Trials: 5, Errors: 2,
			Failures: []jsonFailure{{Trial: 3, Outcome: "failed", Err: "boom"}}},
	}}
	if err := saveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("roundtrip:\ngot  %+v\nwant %+v", got, cp)
	}
	// Missing file is an empty, usable checkpoint.
	empty, err := loadCheckpoint(filepath.Join(t.TempDir(), "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 || empty.Rows == nil {
		t.Errorf("missing checkpoint: %+v", empty)
	}
	// Corrupt files fail loudly instead of silently restarting the grid.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(bad); err == nil {
		t.Error("corrupt checkpoint loaded")
	}
}

// TestRunPointDeterministic: the same grid point computed twice yields
// deep-equal rows, and the clean anchor matches the reliability baseline —
// the property the chaos gate enforces end to end.
func TestRunPointDeterministic(t *testing.T) {
	opts := options{n: 12, diam: 3, trials: 2, seed: 1, sweep: dyndiam.Sweep{Budget: 100_000}}
	for _, pt := range []gridPoint{
		{"leader", "none", 0},
		{"cflood", "drop", 0.3},
	} {
		a, err := runPoint(opts, pt)
		if err != nil {
			t.Fatalf("%s: %v", pt.key(), err)
		}
		b, err := runPoint(opts, pt)
		if err != nil {
			t.Fatalf("%s: %v", pt.key(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: nondeterministic row\n%+v\n%+v", pt.key(), a, b)
		}
	}
}

func TestParseRatesAndSplitList(t *testing.T) {
	rates, err := parseRates(" 0, 0.05 ,0.2 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rates, []float64{0, 0.05, 0.2}) {
		t.Errorf("rates = %v", rates)
	}
	if _, err := parseRates("0.1,zebra"); err == nil {
		t.Error("bad rate accepted")
	}
	if _, err := parseRates(" , "); err == nil {
		t.Error("empty rate list accepted")
	}
	if got := splitList("a, ,b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("splitList = %v", got)
	}
}
