// Command report regenerates the full reproduction report: it runs a
// standard-scale version of every experiment (E1-E11, DESIGN.md §4) and
// writes aligned-text and CSV outputs plus the construction figures into a
// directory (default ./reports).
//
//	go run ./cmd/report -out reports
//
// Runtime is a few minutes at the default scale; -quick shrinks every
// sweep for a fast smoke run, and -workers runs sweep cells concurrently
// (the tables are identical at every worker count). -obs-out FILE
// additionally collects per-cell metric roll-ups across every sweep and
// writes them as a Prometheus text exposition — identical at every
// -workers setting.
//
// -checkpoint FILE records each experiment step as it completes; with
// -resume, steps already recorded there (whose outputs exist in -out) are
// skipped, so an interrupted report re-runs only its unfinished steps.
// Every step's tables are pure functions of the flags, so a resumed
// report's outputs are identical to an uninterrupted one. Note -obs-out
// roll-ups only cover the steps that actually ran in this invocation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"dyndiam"
	"dyndiam/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")

	var (
		out     = flag.String("out", "reports", "output directory")
		seed    = flag.Uint64("seed", 1, "public-coin seed")
		quick   = flag.Bool("quick", false, "shrink all sweeps for a fast smoke run")
		workers = flag.Int("workers", 0, "concurrent sweep cells (<1 = GOMAXPROCS); does not change results")
		obsOut  = flag.String("obs-out", "", "write sweep metric roll-ups as Prometheus text to this file")
		ckpt    = flag.String("checkpoint", "", "record completed steps in this file")
		resume  = flag.Bool("resume", false, "skip steps already recorded in the -checkpoint file")
	)
	flag.Parse()
	sw := dyndiam.Sweep{Workers: cliutil.Workers(*workers)}
	if *obsOut != "" {
		sw.Metrics = dyndiam.NewMetricsRegistry()
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	sizes := []int{32, 64, 128, 256}
	qs := []int{17, 33, 65}
	leaderSizes := []int{16, 32, 64}
	if *quick {
		sizes = []int{32, 64}
		qs = []int{17, 33}
		leaderSizes = []int{16, 32}
	}

	type step struct {
		name string
		run  func() (*dyndiam.ResultTable, error)
	}
	steps := []step{
		{"e4_gap", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.GapTable(sizes, 4, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatGapTable(rows), nil
		}},
		{"e1_thm6_reduction", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.CFloodReduction(qs, 2, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatReductionTable("E1: Theorem 6 reduction", rows), nil
		}},
		{"e1_diameters", func() (*dyndiam.ResultTable, error) {
			rows, err := dyndiam.ConstructionDiameters(qs, 2, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatDiameterTable(rows), nil
		}},
		{"e2_thm7_reduction", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.ConsensusReduction([]int{201, 401}, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatConsensusRedTbl(rows), nil
		}},
		{"e3_thm8_leader", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.LeaderSweep(leaderSizes, 4, 0.9, 150, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatLeaderTable(rows), nil
		}},
		{"e5_estimate", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.EstimateSweep(leaderSizes, []int{24, 64, 128}, 4, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatEstimateTable(rows), nil
		}},
		{"e6_majority", func() (*dyndiam.ResultTable, error) {
			rows, err := sw.MajoritySweep(48, []float64{0.25, 0.5, 0.75, 1.0}, 4, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatMajorityTable(rows), nil
		}},
		{"e9_comm", func() (*dyndiam.ResultTable, error) {
			rows, err := dyndiam.CommTable([]int{2, 4}, qs, *seed)
			if err != nil {
				return nil, err
			}
			return dyndiam.FormatCommTable(rows), nil
		}},
		{"e10_phases", func() (*dyndiam.ResultTable, error) {
			var rows []dyndiam.PhaseBreakdown
			for _, n := range leaderSizes {
				pb, err := sw.LeaderPhases(n, 4, *seed, nil)
				if err != nil {
					return nil, err
				}
				rows = append(rows, pb)
			}
			return dyndiam.FormatPhaseBreakdown(rows), nil
		}},
	}

	done := map[string]bool{}
	if *ckpt != "" && *resume {
		var err error
		if done, err = loadCheckpoint(*ckpt); err != nil {
			log.Fatal(err)
		}
	}
	stepNames := make([]string, len(steps))
	for i, s := range steps {
		stepNames[i] = s.name
	}
	for _, s := range steps {
		if done[s.name] && stepOutputsExist(*out, s.name) {
			fmt.Printf("%-20s %8s  -> resumed from checkpoint\n", s.name, "-")
			continue
		}
		start := time.Now()
		table, err := s.run()
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		if err := writeTable(*out, s.name, table); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		done[s.name] = true
		if *ckpt != "" {
			if err := saveCheckpoint(*ckpt, stepNames, done); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
		}
		fmt.Printf("%-20s %8s  -> %s.{txt,csv}\n", s.name, time.Since(start).Round(time.Millisecond), s.name)
	}

	if *obsOut != "" {
		f, err := os.Create(*obsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := dyndiam.WriteMetricsText(f, sw.Metrics); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8s  -> %s\n", "sweep_metrics", "-", *obsOut)
	}

	// Construction figures.
	figures := []struct {
		name string
		gen  func() (string, error)
	}{
		{"figure1_gamma", dyndiam.Figure1},
		{"figure2_centipede", dyndiam.Figure2},
		{"figure3_centipede", dyndiam.Figure3},
	}
	for _, f := range figures {
		txt, err := f.gen()
		if err != nil {
			log.Fatalf("%s: %v", f.name, err)
		}
		if err := os.WriteFile(filepath.Join(*out, f.name+".txt"), []byte(txt), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8s  -> %s.txt\n", f.name, "-", f.name)
	}

	// A DOT rendering of the Theorem 6 composition for the smallest q.
	in := dyndiam.RandomDisjZero(2, qs[0], 1, *seed)
	net, err := dyndiam.NewCFloodNetwork(in)
	if err != nil {
		log.Fatal(err)
	}
	dot := dyndiam.CFloodDOT(net, dyndiam.Reference, 2)
	if err := os.WriteFile(filepath.Join(*out, "composition.dot"), []byte(dot), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %8s  -> composition.dot\n", "composition_dot", "-")
}

// reportCheckpoint is the resume state: names of completed steps. The
// step outputs themselves live in -out; the checkpoint only records which
// are done, and resume re-verifies the files exist before skipping.
type reportCheckpoint struct {
	Done []string `json:"done"`
}

func loadCheckpoint(path string) (map[string]bool, error) {
	done := map[string]bool{}
	var cp reportCheckpoint
	if _, err := cliutil.LoadJSON(path, &cp); err != nil {
		return nil, err
	}
	for _, name := range cp.Done {
		done[name] = true
	}
	return done, nil
}

// saveCheckpoint records the completed steps in stepNames order (a slice
// walk, so the file is deterministic — no map iteration).
func saveCheckpoint(path string, stepNames []string, done map[string]bool) error {
	var cp reportCheckpoint
	for _, name := range stepNames {
		if done[name] {
			cp.Done = append(cp.Done, name)
		}
	}
	return cliutil.SaveJSON(path, cp)
}

func stepOutputsExist(dir, name string) bool {
	for _, ext := range []string{".txt", ".csv"} {
		if _, err := os.Stat(filepath.Join(dir, name+ext)); err != nil {
			return false
		}
	}
	return true
}

func writeTable(dir, name string, t *dyndiam.ResultTable) error {
	txt, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	t.Fprint(txt)
	if err := txt.Close(); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := dyndiam.WriteTableCSV(csvf, t); err != nil {
		return err
	}
	return csvf.Close()
}
