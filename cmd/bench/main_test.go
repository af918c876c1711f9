package main

import (
	"strings"
	"testing"
)

// header is what `go test -bench` prints before its result lines.
const header = `goos: linux
goarch: amd64
pkg: dyndiam
cpu: Intel(R) Xeon(R) Processor
`

func mustParse(t *testing.T, out string) *results {
	t.Helper()
	res, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return res
}

func TestParse(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		out  string
		want map[string]run // median ns/op and rounds/s per benchmark
	}{
		{
			name: "sub-benchmark name with slash, equals and GOMAXPROCS suffix",
			out: header + `BenchmarkEngineRingFlood/path=fast-2         	    2000	    500000 ns/op	       512.0 rounds/op	  119968 B/op	    2062 allocs/op
BenchmarkEngineRingFlood/path=fast-observed-2         	    1500	    700000 ns/op	      1026 events/op	       512.0 rounds/op	  994744 B/op	    2072 allocs/op
PASS
ok  	dyndiam	3.1s
`,
			want: map[string]run{
				"BenchmarkEngineRingFlood/path=fast":          {500000, 512 / 500000.0 * 1e9},
				"BenchmarkEngineRingFlood/path=fast-observed": {700000, 512 / 700000.0 * 1e9},
			},
		},
		{
			name: "no GOMAXPROCS suffix and custom metrics",
			out: header + `BenchmarkThm6CFloodReduction 	     100	  10000000 ns/op	      4000 bits/run	         4.000 correct-claims/4	 1234 B/op	 12 allocs/op
`,
			want: map[string]run{"BenchmarkThm6CFloodReduction": {10000000, 0}},
		},
		{
			name: "median of three runs, log and failure lines ignored",
			out: header + `BenchmarkThm8LeaderElect-2   	      50	  30000000 ns/op	        18.00 flooding-rounds
BenchmarkThm8LeaderElect-2   	      50	  90000000 ns/op	        18.00 flooding-rounds
    bench_test.go:12: some log line
--- FAIL: BenchmarkOther
BenchmarkThm8LeaderElect-2   	      50	  20000000 ns/op	        18.00 flooding-rounds
`,
			want: map[string]run{"BenchmarkThm8LeaderElect": {30000000, 0}},
		},
	}
	for _, c := range cases {
		res := mustParse(t, c.out)
		if len(res.runs) != len(c.want) {
			t.Errorf("%s: parsed %v, want %d benchmarks", c.name, res.names, len(c.want))
		}
		for name, want := range c.want {
			runs, ok := res.runs[name]
			if !ok {
				t.Errorf("%s: %q missing from %v", c.name, name, res.names)
				continue
			}
			got := run{
				nsPerOp:      median(runs, func(r run) float64 { return r.nsPerOp }),
				roundsPerSec: median(runs, func(r run) float64 { return r.roundsPerSec }),
			}
			if got != want {
				t.Errorf("%s: %q medians = %+v, want %+v", c.name, name, got, want)
			}
		}
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	t.Parallel()
	for _, out := range []string{
		"",
		header + "PASS\nok  \tdyndiam\t0.01s\n",
		"# dyndiam [dyndiam.test]\n./bench_test.go:9:2: undefined: x\nFAIL\tdyndiam [build failed]\n",
	} {
		if _, err := parse(strings.NewReader(out)); err == nil {
			t.Errorf("parse(%q) accepted an input with no benchmark results", out)
		}
	}
}

func TestCompare(t *testing.T) {
	t.Parallel()
	base := header + `BenchmarkGapTable-2   	      10	 100000000 ns/op
BenchmarkGapTable-2   	      10	 100000000 ns/op
BenchmarkGapTable-2   	      10	 100000000 ns/op
BenchmarkEngineHugeN-2   	      10	 100000000 ns/op	       256.0 rounds/op
BenchmarkEngineHugeN-2   	      10	 100000000 ns/op	       256.0 rounds/op
BenchmarkEngineHugeN-2   	      10	 100000000 ns/op	       256.0 rounds/op
BenchmarkGone-2   	      10	 1 ns/op
`
	cases := []struct {
		name       string
		head       string
		maxRegress float64
		wantErr    string // "" when the gate passes
	}{
		{
			name: "within the bound",
			head: `BenchmarkGapTable-2   	      10	 150000000 ns/op
BenchmarkEngineHugeN-2   	      10	 100000000 ns/op	       256.0 rounds/op
`,
			maxRegress: 100,
		},
		{
			name: "worst regression past the bound is named",
			head: `BenchmarkGapTable-2   	      10	 150000000 ns/op
BenchmarkEngineHugeN-2   	      10	 350000000 ns/op	       256.0 rounds/op
`,
			maxRegress: 100,
			wantErr:    "BenchmarkEngineHugeN regressed 250.0%",
		},
		{
			name: "a single slow pass does not move the median",
			head: `BenchmarkGapTable-2   	      10	 100000000 ns/op
BenchmarkGapTable-2   	      10	 900000000 ns/op
BenchmarkGapTable-2   	      10	 100000000 ns/op
`,
			maxRegress: 20,
		},
		{
			name: "rounds/s drop gates while ns/op holds",
			head: `BenchmarkEngineHugeN-2   	      10	 100000000 ns/op	       64.0 rounds/op
`,
			maxRegress: 20,
			wantErr:    "BenchmarkEngineHugeN regressed 75.0%",
		},
		{
			name: "a benchmark in only one file is not gated",
			head: `BenchmarkGapTable-2   	      10	 100000000 ns/op
BenchmarkEngineRingFlood/path=msg-2   	      10	 999999999999 ns/op	       512.0 rounds/op
`,
			maxRegress: 20,
		},
	}
	for _, c := range cases {
		var out strings.Builder
		err := compare(&out, mustParse(t, base), mustParse(t, c.head), c.maxRegress)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: gate failed: %v\n%s", c.name, err, out.String())
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want it to contain %q\n%s", c.name, err, c.wantErr, out.String())
		}
	}
}

func TestCompareReportsUngated(t *testing.T) {
	t.Parallel()
	base := mustParse(t, "BenchmarkGone-2 \t 10\t 100 ns/op\nBenchmarkKept-2 \t 10\t 100 ns/op\n")
	head := mustParse(t, "BenchmarkKept-2 \t 10\t 100 ns/op\nBenchmarkNew-2 \t 10\t 100 ns/op\n")
	var out strings.Builder
	if err := compare(&out, base, head, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BenchmarkNew", "new, not gated", "BenchmarkGone", "gone, not gated", "BenchmarkKept"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
