// Command advsearch searches edge-schedule space for adversarial dynamic
// graphs — the mechanical counterpart of the paper's hand-built
// lower-bound constructions. For each requested protocol it runs the
// configured search (seeded random restarts, greedy edge-rewire local
// search, or mutation/crossover evolution), prints the
// discovered-vs-constructed hardness table, and can freeze its best
// discoveries into the regression corpus that TestCorpusHardness replays.
//
//	go run ./cmd/advsearch -proto cflood_known -n 12 -restarts 4 -steps 16 -seed 7
//
// Everything is a pure function of the seeds: the same flags produce a
// byte-identical table and report at any -workers setting. Long searches
// checkpoint per evaluation batch with -checkpoint FILE (one file per
// protocol, suffixed .<proto>); -resume skips completed work, landing on
// the identical result. -replay NAME re-evaluates one embedded corpus
// entry and verifies its recorded hardness bit for bit; -expect-constructed
// exits non-zero unless the search's best equals the paper construction's
// hardness exactly (the zero-budget CI gate).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"dyndiam/internal/advsearch"
	"dyndiam/internal/cliutil"
	"dyndiam/internal/harness"
)

type options struct {
	protocols  []string
	n          int
	horizon    int
	mode       string
	restarts   int
	steps      int
	pop        int
	extraEdges int
	seed       uint64
	evalBudget int
	top        int
	workers    int

	checkpoint string
	resume     bool
	jsonOut    string
	tableOut   string
	corpusDir  string

	replay            string
	expectConstructed bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("advsearch: ")

	var (
		protocols  = flag.String("proto", "all", "comma-separated protocols to search, or \"all\"")
		n          = flag.Int("n", 12, "network size")
		horizon    = flag.Int("horizon", 0, "scripted schedule length in rounds (0 = 2N; later rounds hold the last topology)")
		mode       = flag.String("mode", "greedy", "search strategy: random, greedy, or evolve")
		restarts   = flag.Int("restarts", 4, "independent restarts (0 = zero-budget: evaluate only the paper construction)")
		steps      = flag.Int("steps", 16, "hill-climb steps per restart, or generations in evolve mode")
		pop        = flag.Int("pop", 0, "evolve population size (0 = default)")
		extraEdges = flag.Int("extra-edges", 0, "extra edges beyond a spanning tree in initial random rounds (0 = N/2)")
		seed       = flag.Uint64("seed", 1, "search seed root; all randomness derives from it")
		evalBudget = flag.Int("eval-budget", 200_000, "round budget per candidate evaluation")
		top        = flag.Int("top", 3, "distinct best discoveries to retain per protocol")
		workers    = flag.Int("workers", 0, "concurrent evaluation cells (<1 = GOMAXPROCS); does not change results")
		checkpoint = flag.String("checkpoint", "", "checkpoint search state to this file (suffixed .<proto> per protocol)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint file, skipping completed work")
		jsonOut    = flag.String("json", "", "write the JSON reports to this file")
		tableOut   = flag.String("table-out", "", "additionally write the hardness table to this file")
		corpusDir  = flag.String("corpus-dir", "", "write the top discoveries as corpus entries into this directory")

		replay            = flag.String("replay", "", "re-evaluate this embedded corpus entry and verify its recorded hardness")
		expectConstructed = flag.Bool("expect-constructed", false, "fail unless the best score equals the constructed baseline's (zero-budget gate)")
	)
	flag.Parse()

	opts := options{
		n: *n, horizon: *horizon, mode: *mode, restarts: *restarts,
		steps: *steps, pop: *pop, extraEdges: *extraEdges, seed: *seed,
		evalBudget: *evalBudget, top: *top, workers: cliutil.Workers(*workers),
		checkpoint: *checkpoint, resume: *resume,
		jsonOut: *jsonOut, tableOut: *tableOut, corpusDir: *corpusDir,
		replay: *replay, expectConstructed: *expectConstructed,
	}
	if *protocols == "all" {
		for _, p := range advsearch.Protocols() {
			opts.protocols = append(opts.protocols, string(p))
		}
	} else {
		opts.protocols = cliutil.SplitList(*protocols)
	}

	if opts.replay != "" {
		if err := runReplay(opts, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run searches every requested protocol and renders the combined
// hardness table. It is main minus flag parsing and process exit, so
// tests drive it directly.
func run(opts options, stdout io.Writer) error {
	var rows []advsearch.HardnessRow
	var reports []*advsearch.Report
	for _, name := range opts.protocols {
		proto, err := advsearch.ParseProto(name)
		if err != nil {
			return err
		}
		cfg := advsearch.Config{
			Proto: proto, N: opts.n, Horizon: opts.horizon,
			Mode: advsearch.Mode(opts.mode), Restarts: opts.restarts,
			Steps: opts.steps, Pop: opts.pop, ExtraEdges: opts.extraEdges,
			Seed: opts.seed, EvalBudget: opts.evalBudget, Top: opts.top,
		}
		rep, err := searchOne(cfg, opts)
		if err != nil {
			return fmt.Errorf("%s: %v", proto, err)
		}
		reports = append(reports, rep)
		row := advsearch.RowFromReport(rep)
		rows = append(rows, row)
		fmt.Fprintf(stdout, "advsearch: proto=%s n=%d constructed=%d discovered=%d ratio=%.2f origin=%q evals=%d\n",
			row.Proto, row.N, row.ConstructedScore, row.DiscoveredScore,
			float64(row.DiscoveredScore)/float64(row.ConstructedScore), row.Origin, row.Evaluated)
		if opts.expectConstructed && row.DiscoveredScore != row.ConstructedScore {
			return fmt.Errorf("%s: best score %d does not equal the constructed baseline's %d", proto, row.DiscoveredScore, row.ConstructedScore)
		}
		if opts.corpusDir != "" {
			if err := writeCorpus(opts.corpusDir, rep); err != nil {
				return err
			}
		}
	}
	table := advsearch.FormatHardnessTable(rows).String()
	fmt.Fprint(stdout, table)
	if opts.tableOut != "" {
		if err := cliutil.WriteFileAtomic(opts.tableOut, []byte(table), 0o644); err != nil {
			return err
		}
	}
	if opts.jsonOut != "" {
		if err := cliutil.SaveJSON(opts.jsonOut, reports); err != nil {
			return err
		}
	}
	return nil
}

// searchOne runs one protocol's search with checkpointing wired to the
// per-protocol state file.
func searchOne(cfg advsearch.Config, opts options) (*advsearch.Report, error) {
	var st *advsearch.State
	path := ""
	if opts.checkpoint != "" {
		path = fmt.Sprintf("%s.%s", opts.checkpoint, cfg.Proto)
	}
	if path != "" && opts.resume {
		var loaded advsearch.State
		found, err := cliutil.LoadJSON(path, &loaded)
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint %s: %v", path, err)
		}
		if found {
			st = &loaded
		}
	}
	opt := advsearch.Options{Sweep: harness.Sweep{Workers: opts.workers}}
	if path != "" {
		opt.OnProgress = func(st *advsearch.State) error {
			return cliutil.SaveJSON(path, st)
		}
	}
	return advsearch.Search(cfg, st, opt)
}

// writeCorpus freezes the report's top discoveries as corpus entry
// files, one JSON document per entry.
func writeCorpus(dir string, rep *advsearch.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, e := range advsearch.CorpusEntriesFromReport(rep) {
		if err := cliutil.SaveJSON(filepath.Join(dir, e.Name+".json"), e); err != nil {
			return err
		}
	}
	return nil
}

// runReplay re-evaluates one embedded corpus entry and verifies the
// recorded hardness — the single-candidate analogue of cmd/chaos
// -replay.
func runReplay(opts options, stdout io.Writer) error {
	entries, err := advsearch.LoadCorpus()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name != opts.replay {
			continue
		}
		h, err := advsearch.Evaluate(e.Proto, e.Schedule, e.EvalSeed, e.EvalBudget, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "advsearch: replay %s proto=%s rounds=%d d=%d done=%v (recorded rounds=%d d=%d)\n",
			e.Name, e.Proto, h.Rounds, h.D, h.Done, e.Hardness.Rounds, e.Hardness.D)
		if h != e.Hardness {
			return fmt.Errorf("replay %s: hardness %+v does not match recorded %+v", e.Name, h, e.Hardness)
		}
		return nil
	}
	return fmt.Errorf("no corpus entry named %q (have %d entries)", opts.replay, len(entries))
}
