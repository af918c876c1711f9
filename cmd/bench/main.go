// Command bench is the regression gate for the repository's layer
// benchmarks. It reads two `go test -bench -count N` outputs, one from the
// parent commit and one from the change, built and run on the same host:
//
//	go run ./cmd/bench [-max-regress P] BASE.txt HEAD.txt
//
// For every benchmark in both files it prints the median ns/op and, where
// the benchmark reports rounds/op, the median rounds/s (rounds/op ÷ ns/op)
// of each side, and exits 1 if either median regressed by more than P
// percent (default 20). A benchmark found in only one file is printed but
// not gated. An input with no benchmark result lines is an error, so a side
// that fails to build or prints nothing never passes. `make benchgate` is
// the script that produces both files and runs this gate.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	maxRegress := flag.Float64("max-regress", 20, "exit 1 if a median ns/op or rounds/s regresses more than this percent")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: bench [-max-regress P] BASE.txt HEAD.txt")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	head, err := parseFile(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := compare(os.Stdout, base, head, *maxRegress); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
}

// run is one result line: one pass of one benchmark.
type run struct {
	nsPerOp      float64
	roundsPerSec float64 // 0 when the benchmark reports no rounds/op
}

// results holds every pass of each benchmark, names in first-seen order.
type results struct {
	names []string
	runs  map[string][]run
}

func parseFile(path string) (*results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to a benchmark
// name when GOMAXPROCS > 1.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads `go test -bench` output. A result line is a name starting
// with "Benchmark", an iteration count, then value-unit pairs ("123 ns/op",
// "512.0 rounds/op", ...); every other line is ignored.
func parse(r io.Reader) (*results, error) {
	res := &results{runs: map[string][]run{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		var one run
		var rounds float64
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", f[i], sc.Text())
			}
			switch f[i+1] {
			case "ns/op":
				one.nsPerOp = v
			case "rounds/op":
				rounds = v
			}
		}
		if one.nsPerOp <= 0 {
			continue
		}
		one.roundsPerSec = rounds / one.nsPerOp * 1e9
		name := procSuffix.ReplaceAllString(f[0], "")
		if _, seen := res.runs[name]; !seen {
			res.names = append(res.names, name)
		}
		res.runs[name] = append(res.runs[name], one)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(res.names) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return res, nil
}

// median returns the median of one figure across runs (the upper middle
// one for an even count).
func median(runs []run, of func(run) float64) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = of(r)
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// compare prints each head benchmark against base and returns an error
// naming the worst regression when it exceeds maxRegress percent. A slower
// median ns/op and a lower median rounds/s both count: a workload that
// finished in fewer but slower rounds would hide in ns/op.
func compare(w io.Writer, base, head *results, maxRegress float64) error {
	var worst float64
	var worstName string
	gate := func(name string, regress float64) {
		if regress > worst {
			worst, worstName = regress, name
		}
	}
	for _, name := range head.names {
		h := head.runs[name]
		b, ok := base.runs[name]
		hNs := median(h, func(r run) float64 { return r.nsPerOp })
		if !ok {
			fmt.Fprintf(w, "%-48s %14.0f ns/op (new, not gated)\n", name, hNs)
			continue
		}
		bNs := median(b, func(r run) float64 { return r.nsPerOp })
		nsDelta := (hNs - bNs) / bNs * 100
		gate(name, nsDelta)
		fmt.Fprintf(w, "%-48s %14.0f -> %14.0f ns/op %+7.1f%%", name, bNs, hNs, nsDelta)
		bRps := median(b, func(r run) float64 { return r.roundsPerSec })
		hRps := median(h, func(r run) float64 { return r.roundsPerSec })
		if bRps > 0 && hRps > 0 {
			rpsDrop := (bRps - hRps) / bRps * 100
			gate(name, rpsDrop)
			fmt.Fprintf(w, "  %10.0f -> %10.0f rounds/s %+7.1f%%", bRps, hRps, -rpsDrop)
		}
		fmt.Fprintln(w)
	}
	for _, name := range base.names {
		if _, ok := head.runs[name]; !ok {
			fmt.Fprintf(w, "%-48s (gone, not gated)\n", name)
		}
	}
	if worst > maxRegress {
		return fmt.Errorf("%s regressed %.1f%%, past -max-regress %.1f%%", worstName, worst, maxRegress)
	}
	fmt.Fprintf(w, "ok: worst regression %.1f%% (bound %.1f%%)\n", worst, maxRegress)
	return nil
}
