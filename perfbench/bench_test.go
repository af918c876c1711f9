package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 || xs[1] != 1 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("single sample p90 = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must yield NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10*time.Second, 3*time.Second, 4*time.Second); got != 3*time.Second {
		t.Errorf("selfTime = %v, want 3s", got)
	}
	if got := selfTime(time.Second, 2*time.Second); got != 0 {
		t.Errorf("selfTime below zero = %v, want 0", got)
	}
	if got := selfTime(5 * time.Second); got != 5*time.Second {
		t.Errorf("selfTime without children = %v, want 5s", got)
	}
}

func TestFailRatio(t *testing.T) {
	if got := failRatio(10, 1); got != 0.1 {
		t.Errorf("failRatio(10, 1) = %v", got)
	}
	if got := failRatio(7, 0); got != 0 {
		t.Errorf("failRatio(7, 0) = %v", got)
	}
	if got := failRatio(0, 0); got != 1 {
		t.Errorf("a run that attempted nothing must count as failed, got %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestRunSerial(t *testing.T) {
	rep := &report{}
	// Each case's timed section takes 10ms and does 1 unit of work.
	runSerial(0, 3, rep, func(i int) (time.Duration, float64) { return 10 * time.Millisecond, 1 }, nil)
	if rep.attempted != 3 || len(rep.lat) != 3 {
		t.Fatalf("ran %d cases with %d latencies, want at least minOps = 3", rep.attempted, len(rep.lat))
	}
	if len(rep.rates) != 3 || math.Abs(rep.rates[0]-100) > 1e-9 || math.Abs(rep.lat[0]-10) > 1e-9 {
		t.Errorf("rates = %v, lat = %v, want 100/s and 10ms per case", rep.rates, rep.lat)
	}
}

func TestWindowRates(t *testing.T) {
	at := func(d time.Duration, fail bool) sample { return sample{at: d, fail: fail} }
	samples := []sample{
		at(100*time.Millisecond, false), at(900*time.Millisecond, false),
		at(1500*time.Millisecond, false), at(1600*time.Millisecond, true),
		at(2500*time.Millisecond, false), // in the partial last window: dropped
	}
	got := windowRates(samples, 2700*time.Millisecond)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("windowRates = %v, want [2 1]", got)
	}
	// A loop shorter than a window is one window of its own length.
	got = windowRates(samples[:2], 500*time.Millisecond)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("short loop windowRates = %v, want [2] (one cycle in 0.5s)", got)
	}
}

func TestSameConfig(t *testing.T) {
	base := stamp{Workload: "flood-huge", Seed: 3, Seconds: 20, GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0",
		Parts: map[string]interface{}{"n": 100000}, Counts: map[string]int64{"rounds": 1024}}
	if err := sameConfig(base, base); err != nil {
		t.Fatalf("identical stamps: %v", err)
	}
	for name, mut := range map[string]func(*stamp){
		"smoke size":  func(s *stamp) { s.Tiny = true },
		"seconds":     func(s *stamp) { s.Seconds = 2 },
		"gomaxprocs":  func(s *stamp) { s.GOMAXPROCS = 4 },
		"part size":   func(s *stamp) { s.Parts = map[string]interface{}{"n": 20000} },
		"exact count": func(s *stamp) { s.Counts = map[string]int64{"rounds": 1025} },
	} {
		s := base
		mut(&s)
		if sameConfig(base, s) == nil {
			t.Errorf("%s: differing stamps compared as equal", name)
		}
	}
}

func TestCompareRefusesDifferentConfigs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tiny bool) string {
		var buf bytes.Buffer
		st, _ := json.Marshal(struct {
			Stamp stamp `json:"stamp"`
		}{stamp{Workload: "serve-mix", Tiny: tiny}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"op_p50_ms": {1.5, "ms"}}})
		buf.Write(st)
		buf.WriteString("\nsome log line\n")
		buf.Write(res)
		buf.WriteString("\n")
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	full, full2, tiny := write("a", false), write("b", false), write("c", true)
	var out, errb bytes.Buffer
	if code := compareMain([]string{full, full2}, &out, &errb); code != 0 {
		t.Fatalf("equal configs: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "op_p50_ms") {
		t.Errorf("comparison lacks the metric:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := compareMain([]string{full, tiny}, &out, &errb); code != 2 {
		t.Errorf("smoke vs full compared with exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "refusing") {
		t.Errorf("refusal not explained: %q", errb.String())
	}
}

func TestParseOpts(t *testing.T) {
	var errb bytes.Buffer
	o, err := parseOpts([]string{"--workload", "flood-huge", "--seed", "9", "--seconds", "2", "--trace", "1"}, &errb)
	if err != nil || o.workload != "flood-huge" || o.seed != 9 || o.seconds != 2 || !o.trace {
		t.Fatalf("parseOpts = %+v, %v", o, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "flood-huge", "--trace", "2"},
		{"--workload", "flood-huge", "--seconds", "0"},
		{"--workload", "flood-huge", "--tiny"}, // smoke size is for the tests only
	} {
		if _, err := parseOpts(args, &errb); err == nil {
			t.Errorf("parseOpts(%v) accepted bad arguments", args)
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric tables here and the
// benchmark definition at the repository root in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the result line's shape and the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := opts{workload: name, seed: 5, seconds: 0.2, trace: trace, tiny: true}
			var out bytes.Buffer
			if err := runBench(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or wrong unit (%+v)", name, trace, d.name, m)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, m.Value)
				}
			}
		}
	}
}
