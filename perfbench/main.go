// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public entry points for a fixed time
// and prints, as the last line of standard output, one JSON object with
// the fields correct, attempted, failed and metrics.
//
//	perfbench --workload leader-msg --seed 1 --seconds 20 --trace 0
//	perfbench compare run-a.txt run-b.txt
//
// --trace 0 reports the end-to-end metrics with every timing shim off;
// --trace 1 runs the same inputs through the timing shims and reports
// the per-layer metrics instead. The line before the result is the
// run's configuration stamp; compare refuses to put two runs side by
// side unless their stamps agree. See README.md for the workloads and
// what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opts are one run's command-line settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input to smoke-test size. Only the tests set
	// it; it has no command-line flag.
	tiny bool
}

func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// report is what a workload hands back: raw samples and tallies, which
// main turns into named metrics.
type report struct {
	setup []float64 // seconds of each set-up repetition
	lat   []float64 // milliseconds of each timed operation
	rates []float64 // work units per second, per case or per time window

	attempted, failed int64

	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// parts is the workload's configuration; counts are its exact
	// per-pass counts, which must repeat for a seed.
	parts  map[string]interface{}
	counts map[string]int64
}

// fail records one failed operation with its reason on standard error.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports all of them; a layer the workload never enters
// reads 0.
var perLayer = []metricDef{
	{"dynet.self_s", "s"},
	{"dynet.runflood_self_s", "s"},
	{"dynet.rounds", "count"},
	{"dynet.messages", "count"},
	{"dynet.bits", "count"},
	{"dynet.floodfast_runs", "count"},
	{"dynet.workers_speedup", "x"},
	{"protocols.step_s", "s"},
	{"protocols.deliver_s", "s"},
	{"protocols.step_calls", "count"},
	{"protocols.deliver_msgs", "count"},
	{"adversaries.topology_s", "s"},
	{"adversaries.diff_s", "s"},
	{"adversaries.diff_ops", "count"},
	{"faults.round_cost_x", "x"},
	{"faults.injected", "count"},
	{"harness.diameter_s", "s"},
	{"advsearch.evals", "count"},
	{"advsearch.improvements", "count"},
	{"advsearch.evals_per_s", "1/s"},
	{"serve.jobs_per_s", "1/s"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p90_ms", "ms"},
	{"serve.cold_p99_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.executions", "count"},
	{"serve.rejected", "count"},
	{"wire.overhead_x", "x"},
	{"wire.rounds_per_s", "1/s"},
	{"wire.bytes_per_round", "B"},
	{"wire.write_s", "s"},
	{"wire.retries", "count"},
	{"wire.deadline_hits", "count"},
	{"wire.reconnects", "count"},
	{"wire.crc_rejects", "count"},
	{"wire.fault_drops", "count"},
	{"wire.fault_corrupts", "count"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.bytes_per_round", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"bench.rounds_per_s", "1/s"},
	{"bench.fail_ratio", "ratio"},
	{"bench.trace_overhead_x", "x"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*report, error){
	"leader-msg": runLeader,
	"flood-huge": runFlood,
	"serve-mix":  runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metrics turns a report into the named metrics of the run's mode.
func (r *report) metrics(trace bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if trace {
		for _, d := range perLayer {
			out[d.name] = metricValue{r.layers[d.name], d.unit}
		}
		out["bench.fail_ratio"] = metricValue{failRatio(r.attempted, r.failed), "ratio"}
		return out, nil
	}
	if len(r.setup) == 0 || len(r.lat) == 0 || len(r.rates) == 0 {
		return nil, fmt.Errorf("no timed operation completed")
	}
	vals := map[string]float64{
		"setup_s":    median(r.setup),
		"work_per_s": median(r.rates),
		"op_p50_ms":  percentile(r.lat, 50),
		"op_p90_ms":  percentile(r.lat, 90),
		"max_rss_mb": maxRSSMB(),
	}
	for _, d := range endToEnd {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out, nil
}

// stamp is a run's configuration: everything its figures depend on
// besides the code. Two runs are comparable only when their stamps are
// equal.
type stamp struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Tiny       bool                   `json:"tiny"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"nproc"`
	GoVersion  string                 `json:"go_version"`
	Parts      map[string]interface{} `json:"parts"`
	Counts     map[string]int64       `json:"counts"`
}

func newStamp(o opts, r *report) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Tiny: o.tiny,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Parts: r.parts, Counts: r.counts,
	}
}

// sameConfig reports why two stamps are not comparable, or nil. The
// comparison is over the canonical JSON of each stamp, so a field added
// to one side only is a difference too.
func sameConfig(a, b stamp) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if string(ja) != string(jb) {
		return fmt.Errorf("configurations differ:\n  %s\n  %s", ja, jb)
	}
	return nil
}

func parseOpts(args []string, stderr io.Writer) (opts, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the timing shims and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// runBench executes one run and writes the stamp and result lines.
func runBench(o opts, stdout io.Writer) error {
	rep, err := workloads[o.workload](o)
	if err != nil {
		return err
	}
	m, err := rep.metrics(o.trace)
	if err != nil {
		return err
	}
	res := result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: m}
	st, err := json.Marshal(struct {
		Stamp stamp `json:"stamp"`
	}{newStamp(o, rep)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", st, line)
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	o, err := parseOpts(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := runBench(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
