// Command chaos runs a deterministic fault grid over the paper's
// protocols and reports graceful degradation: for each protocol and each
// fault dimension it sweeps a list of fault rates, estimating the error
// rate at each point with a 95% Wilson interval.
//
//	go run ./cmd/chaos -n 24 -trials 20 -rates 0,0.01,0.05,0.2
//
// Output is a plain-text degradation table per protocol on stdout and,
// with -json FILE, a machine-readable report. Both are deterministic:
// the same flags and seed produce byte-identical output (fault schedules
// are pure functions of the seed; nothing is timestamped). The only
// machine-dependent escape hatch is -cell-budget, which abandons trials
// that exceed a wall-clock budget — off by default.
//
// The zero rate anchors the grid: it runs the exact clean path (no fault
// plan at all), and chaos cross-checks the leader protocol's zero-fault
// row against the clean LeaderReliability baseline, exiting non-zero if
// they disagree — a regression gate proving fault injection costs nothing
// when off.
//
// Long grids checkpoint per grid point with -checkpoint FILE; -resume
// skips points already recorded there, so an interrupted grid re-runs
// only its unfinished points.
//
// -replay re-runs one faulty trial of one grid point in isolation (same
// seeds, same fault schedule) with observability attached: -obs-out
// writes its event stream as JSONL, -trace-out as Chrome trace-event
// JSON for Perfetto, -metrics-out the fault counters as Prometheus text.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dyndiam"
	"dyndiam/internal/cliutil"
	"dyndiam/internal/harness"
)

type options struct {
	n, diam, trials int
	seed            uint64
	rates           []float64
	dims            []string
	protocols       []string
	sweep           dyndiam.Sweep // workers and the resolved -budget
	cellBudget      time.Duration
	jsonOut         string
	checkpoint      string
	resume          bool

	replay      int // trial index, -1 = off
	replayProto string
	replayDim   string
	replayRate  float64
	obsOut      string
	traceOut    string
	metricsOut  string
}

// jsonFailure is one non-OK cell in the JSON report.
type jsonFailure struct {
	Trial   int    `json:"trial"`
	Outcome string `json:"outcome"`
	Err     string `json:"err"`
}

// jsonRow is one grid point. Fields are value-deterministic: same flags
// and seed yield byte-identical JSON.
type jsonRow struct {
	Protocol  string        `json:"protocol"`
	Dim       string        `json:"dim"`
	Rate      float64       `json:"rate"`
	Label     string        `json:"label"`
	Trials    int           `json:"trials"`
	Errors    int           `json:"errors"`
	ErrorRate float64       `json:"error_rate"`
	WilsonLo  float64       `json:"wilson_lo"`
	WilsonHi  float64       `json:"wilson_hi"`
	Rounds    jsonSummary   `json:"rounds"`
	Failures  []jsonFailure `json:"failures,omitempty"`
}

type jsonSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
}

type report struct {
	N      int       `json:"n"`
	Diam   int       `json:"diam"`
	Trials int       `json:"trials"`
	Seed   uint64    `json:"seed"`
	Rows   []jsonRow `json:"rows"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")

	var (
		n          = flag.Int("n", 24, "network size")
		diam       = flag.Int("diam", 4, "target dynamic diameter of the adversary family")
		trials     = flag.Int("trials", 20, "trials per grid point")
		seed       = flag.Uint64("seed", 1, "fault-plan seed root")
		rates      = flag.String("rates", "0,0.01,0.05,0.2", "comma-separated fault rates (include 0 for the clean anchor)")
		dims       = flag.String("dims", "drop,dup,corrupt,crash,edgecut", "comma-separated fault dimensions")
		protocols  = flag.String("protocols", "leader,cflood", "comma-separated protocols ("+strings.Join(harness.DegradationProblems(), ", ")+")")
		budget     = flag.Int("budget", 200_000, "round budget per trial before structured non-termination (<1 = harness default)")
		cellBudget = flag.Duration("cell-budget", 0, "wall-clock budget per trial (0 = unlimited; overruns are machine-dependent)")
		jsonOut    = flag.String("json", "", "write the JSON report to this file")
		checkpoint = flag.String("checkpoint", "", "write per-grid-point checkpoints to this file")
		resume     = flag.Bool("resume", false, "skip grid points already in the -checkpoint file")

		replay      = flag.Int("replay", -1, "replay this trial of one grid point in isolation (needs -replay-dim/-replay-rate)")
		replayProto = flag.String("replay-protocol", "leader", "protocol of the replayed trial")
		replayDim   = flag.String("replay-dim", "drop", "fault dimension of the replayed trial")
		replayRate  = flag.Float64("replay-rate", 0.05, "fault rate of the replayed trial")
		obsOut      = flag.String("obs-out", "", "replay: write the event stream as JSONL to this file")
		traceOut    = flag.String("trace-out", "", "replay: write Chrome trace-event JSON to this file")
		metricsOut  = flag.String("metrics-out", "", "replay: write metrics as Prometheus text to this file")
		workers     = flag.Int("workers", 0, "concurrent trials per grid point (<1 = GOMAXPROCS); does not change results")
	)
	flag.Parse()

	if *budget < 1 {
		*budget = dyndiam.DefaultRoundBudget
	}
	opts := options{
		n: *n, diam: *diam, trials: *trials, seed: *seed,
		sweep: dyndiam.Sweep{Workers: *workers, Budget: *budget}, cellBudget: *cellBudget,
		jsonOut: *jsonOut, checkpoint: *checkpoint, resume: *resume,
		replay: *replay, replayProto: *replayProto, replayDim: *replayDim,
		replayRate: *replayRate, obsOut: *obsOut, traceOut: *traceOut,
		metricsOut: *metricsOut,
	}
	var err error
	if opts.rates, err = parseRates(*rates); err != nil {
		log.Fatal(err)
	}
	opts.dims = splitList(*dims)
	opts.protocols = splitList(*protocols)
	for _, d := range opts.dims {
		if _, err := specFor(d, 0.5); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range append([]string{opts.replayProto}, opts.protocols...) {
		if !slices.Contains(harness.DegradationProblems(), p) {
			log.Fatalf("unknown protocol %q (want one of %s)", p, strings.Join(harness.DegradationProblems(), ", "))
		}
	}

	if opts.replay >= 0 {
		if err := runReplay(opts); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runGrid(opts); err != nil {
		log.Fatal(err)
	}
}

// splitList and specFor delegate to the shared helpers (cliutil, the
// harness fault vocabulary); parseRates adds the chaos-specific rule
// that an empty rate list is an error rather than a default.
func splitList(s string) []string { return cliutil.SplitList(s) }

func parseRates(s string) ([]float64, error) {
	out, err := cliutil.ParseFloats(s)
	if err != nil {
		return nil, fmt.Errorf("bad rate: %v", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault rates given")
	}
	return out, nil
}

// specFor builds the single-dimension fault spec of one grid point.
func specFor(dim string, rate float64) (dyndiam.FaultSpec, error) {
	return dyndiam.FaultSpecFor(dim, rate)
}

// gridPoint is one (protocol, dim, rate) cell of the chaos grid. The zero
// rate collapses every dimension onto the same clean run, so it appears
// once per protocol under dim "none".
type gridPoint struct {
	protocol string
	dim      string
	rate     float64
}

func (g gridPoint) key() string {
	return g.protocol + "|" + g.dim + "|" + strconv.FormatFloat(g.rate, 'g', -1, 64)
}

// gridPoints expands the flag grid in deterministic order: per protocol,
// the clean anchor first (if rate 0 was requested), then dims × rates.
func gridPoints(opts options) []gridPoint {
	var pts []gridPoint
	for _, proto := range opts.protocols {
		hasZero := false
		for _, r := range opts.rates {
			if r == 0 {
				hasZero = true
			}
		}
		if hasZero {
			pts = append(pts, gridPoint{protocol: proto, dim: "none", rate: 0})
		}
		for _, dim := range opts.dims {
			for _, r := range opts.rates {
				if r == 0 {
					continue
				}
				pts = append(pts, gridPoint{protocol: proto, dim: dim, rate: r})
			}
		}
	}
	return pts
}

func runPoint(opts options, pt gridPoint) (jsonRow, error) {
	// The anchor point ("none", rate 0) yields the zero Spec, which the
	// sweep compiles to no fault plan at all.
	spec, err := specFor(pt.dim, pt.rate)
	if err != nil {
		return jsonRow{}, err
	}
	cfg := dyndiam.DegradationConfig{
		N: opts.n, TargetDiam: opts.diam, Trials: opts.trials,
		Seed: opts.seed, Specs: []dyndiam.FaultSpec{spec},
		CellBudget: opts.cellBudget,
	}
	rows, err := opts.sweep.Degradation(pt.protocol, cfg)
	if err != nil {
		return jsonRow{}, fmt.Errorf("%s: %v", pt.key(), err)
	}
	r := rows[0]
	jr := jsonRow{
		Protocol: pt.protocol, Dim: pt.dim, Rate: pt.rate, Label: r.Label,
		Trials: r.Trials, Errors: r.Errors, ErrorRate: r.ErrorRate,
		WilsonLo: r.WilsonLo, WilsonHi: r.WilsonHi,
		Rounds: jsonSummary{
			N: r.Rounds.N, Mean: r.Rounds.Mean, Std: r.Rounds.Std,
			Min: r.Rounds.Min, Max: r.Rounds.Max, P50: r.Rounds.P50, P90: r.Rounds.P90,
		},
	}
	for _, f := range r.CellFailures {
		jr.Failures = append(jr.Failures, jsonFailure{
			Trial: f.Cell, Outcome: f.Outcome.String(), Err: f.Err.Error(),
		})
	}
	return jr, nil
}

// checkpointFile is the on-disk resume state: completed grid points by key.
type checkpointFile struct {
	Rows map[string]jsonRow `json:"rows"`
}

func loadCheckpoint(path string) (checkpointFile, error) {
	cp := checkpointFile{Rows: map[string]jsonRow{}}
	if _, err := cliutil.LoadJSON(path, &cp); err != nil {
		return cp, err
	}
	if cp.Rows == nil {
		cp.Rows = map[string]jsonRow{}
	}
	return cp, nil
}

func saveCheckpoint(path string, cp checkpointFile) error {
	return cliutil.SaveJSON(path, cp)
}

func runGrid(opts options) error {
	pts := gridPoints(opts)
	cp := checkpointFile{Rows: map[string]jsonRow{}}
	if opts.checkpoint != "" && opts.resume {
		var err error
		if cp, err = loadCheckpoint(opts.checkpoint); err != nil {
			return err
		}
	}

	rep := report{N: opts.n, Diam: opts.diam, Trials: opts.trials, Seed: opts.seed}
	for _, pt := range pts {
		row, done := cp.Rows[pt.key()]
		if done {
			fmt.Printf("%-28s resumed from checkpoint\n", pt.key())
		} else {
			var err error
			if row, err = runPoint(opts, pt); err != nil {
				return err
			}
			cp.Rows[pt.key()] = row
			if opts.checkpoint != "" {
				if err := saveCheckpoint(opts.checkpoint, cp); err != nil {
					return err
				}
			}
			fmt.Printf("%-28s errors %d/%d\n", pt.key(), row.Errors, row.Trials)
		}
		rep.Rows = append(rep.Rows, row)
	}

	fmt.Println()
	printTables(rep)

	if opts.jsonOut != "" {
		if err := cliutil.SaveJSON(opts.jsonOut, rep); err != nil {
			return err
		}
		fmt.Printf("json report -> %s\n", opts.jsonOut)
	}

	return gate(opts, rep)
}

// printTables renders one degradation table per protocol from report rows.
func printTables(rep report) {
	byProto := map[string][]jsonRow{}
	var order []string
	for _, r := range rep.Rows {
		if _, ok := byProto[r.Protocol]; !ok {
			order = append(order, r.Protocol)
		}
		byProto[r.Protocol] = append(byProto[r.Protocol], r)
	}
	for _, proto := range order {
		t := &dyndiam.ResultTable{
			Caption: fmt.Sprintf("%s degradation: error rate vs fault rate (95%% Wilson)", proto),
			Header:  []string{"dim", "rate", "trials", "errors", "rate", "wilson95", "mean rounds", "failures"},
		}
		for _, r := range byProto[proto] {
			t.Add(r.Dim, r.Rate, r.Trials, r.Errors,
				fmt.Sprintf("%.4f", r.ErrorRate),
				fmt.Sprintf("[%.4f,%.4f]", r.WilsonLo, r.WilsonHi),
				fmt.Sprintf("%.1f", r.Rounds.Mean), len(r.Failures))
		}
		t.Fprint(os.Stdout)
		fmt.Println()
	}
}

// gate cross-checks the leader protocol's zero-fault row against the
// clean LeaderReliability baseline — same N, diameter, trials, and trial
// seeds, no fault machinery at all. Any disagreement means the injection
// layer is not free when off; chaos exits non-zero.
func gate(opts options, rep report) error {
	var zero *jsonRow
	for i := range rep.Rows {
		if rep.Rows[i].Protocol == "leader" && rep.Rows[i].Rate == 0 {
			zero = &rep.Rows[i]
			break
		}
	}
	if zero == nil {
		return nil // no clean leader anchor in this grid
	}
	clean, err := opts.sweep.LeaderReliability(opts.n, opts.diam, opts.trials, nil)
	if err != nil {
		return fmt.Errorf("gate: clean baseline failed: %v", err)
	}
	ok := zero.Errors == clean.Errors &&
		zero.Trials == clean.Trials &&
		len(zero.Failures) == 0 &&
		zero.Rounds.N == clean.Rounds.N &&
		zero.Rounds.Mean == clean.Rounds.Mean &&
		zero.Rounds.Max == clean.Rounds.Max
	if !ok {
		return fmt.Errorf("gate: zero-fault leader row (errors %d/%d, rounds mean %.2f, %d cell failures) regresses vs clean baseline (errors %d/%d, rounds mean %.2f)",
			zero.Errors, zero.Trials, zero.Rounds.Mean, len(zero.Failures),
			clean.Errors, clean.Trials, clean.Rounds.Mean)
	}
	fmt.Printf("gate: zero-fault leader row matches clean baseline (errors %d/%d, rounds mean %.2f)\n",
		clean.Errors, clean.Trials, clean.Rounds.Mean)
	return nil
}

// runReplay re-runs one trial of one grid point with observability
// attached. It makes the sweep's own trial run (Sweep.DegradationTrial):
// the protocol and adversary seed from ReliabilityTrialSeed(trial), the
// fault-plan seed from FaultTrialSeed(seed, 0, trial), and the trial's
// termination rule and horizon.
func runReplay(opts options) error {
	spec, err := specFor(opts.replayDim, opts.replayRate)
	if err != nil {
		return err
	}
	cfg := dyndiam.DegradationConfig{
		N: opts.n, TargetDiam: opts.diam, Seed: opts.seed, Specs: []dyndiam.FaultSpec{spec},
	}
	ring := dyndiam.NewObsRing(1 << 20)
	reg := dyndiam.NewMetricsRegistry()
	// The sweep runs every trial in a guarded cell, so a trial recorded
	// as "panicked" is one whose protocol panics under these faults —
	// replaying it must survive the same panic and still export the
	// events captured up to it, or the failures most worth debugging
	// would be the only ones replay can't show.
	res, err := func() (res *dyndiam.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("trial panicked (recorded as a cell failure in the grid): %v", v)
			}
		}()
		return opts.sweep.DegradationTrial(opts.replayProto, cfg, 0, opts.replay, ring, reg)
	}()
	switch {
	case err != nil:
		fmt.Printf("replay %s trial %d (%s): %v; %d events captured (%d dropped)\n",
			opts.replayProto, opts.replay, spec.Label(), err, ring.Len(), ring.Dropped())
	default:
		fmt.Printf("replay %s trial %d (%s): rounds %d, done %v, %d events (%d dropped)\n",
			opts.replayProto, opts.replay, spec.Label(), res.Rounds, res.Done, ring.Len(), ring.Dropped())
	}

	writeTo := func(path string, write func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		return cliutil.WriteWith(path, write)
	}
	if err := writeTo(opts.obsOut, func(f *os.File) error {
		return dyndiam.WriteEventsJSONL(f, ring.Events())
	}); err != nil {
		return err
	}
	if err := writeTo(opts.traceOut, func(f *os.File) error {
		return dyndiam.WriteChromeTrace(f, ring.Events())
	}); err != nil {
		return err
	}
	return writeTo(opts.metricsOut, func(f *os.File) error {
		return dyndiam.WriteMetricsText(f, reg)
	})
}
