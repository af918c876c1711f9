// Command leaderelect runs the Theorem 8 experiment E3: the Section 7
// leader-election protocol with unknown diameter and an approximate N',
// swept across network sizes; optionally the two-stage-locking ablation.
//
// With -obs-out (JSONL event log) and/or -trace-out (Chrome trace-event
// JSON, loadable at ui.perfetto.dev) it instead runs one instrumented
// election at the first -sizes entry and captures its phase/lock event
// stream; summarize the JSONL with cmd/obsview.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"dyndiam"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("leaderelect: ")

	var (
		sizes   = flag.String("sizes", "16,32,64,128", "comma-separated node counts")
		d       = flag.Int("d", 4, "target per-round diameter")
		factor  = flag.Float64("nprime-factor", 1.0, "N' = factor * N (premise: |factor-1| <= 1/3-c)")
		cmil    = flag.Int64("c", 200, "margin c in thousandths")
		seed    = flag.Uint64("seed", 1, "public-coin seed")
		phases  = flag.Bool("phases", false, "report the per-run phase breakdown instead of the sweep")
		retries = flag.Int("reliability", 0, "run this many seeded trials and report the error rate")
		obsOut  = flag.String("obs-out", "", "write one instrumented run's event stream as JSONL to this file")
		trcOut  = flag.String("trace-out", "", "write one instrumented run's Chrome trace-event JSON to this file")
		skipC1  = flag.Bool("skip-count1", false, "instrumented run only: disable the COUNT1 pre-lock check (rollback ablation)")
		line    = flag.Bool("line", false, "instrumented run only: static line topology (high diameter; shows rollbacks under -skip-count1)")
	)
	flag.Parse()

	ns, err := parseSizes(*sizes)
	if err != nil {
		log.Fatal(err)
	}

	var sw dyndiam.Sweep
	switch {
	case *obsOut != "" || *trcOut != "":
		if err := observedRun(ns[0], *d, *factor, *cmil, *seed, *skipC1, *line, *obsOut, *trcOut); err != nil {
			log.Fatal(err)
		}
	case *phases:
		var rows []dyndiam.PhaseBreakdown
		for _, n := range ns {
			pb, err := sw.LeaderPhases(n, *d, *seed, nil)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, pb)
		}
		dyndiam.FormatPhaseBreakdown(rows).Fprint(os.Stdout)
	case *retries > 0:
		for _, n := range ns {
			rel, err := sw.LeaderReliability(n, *d, *retries, nil)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(dyndiam.FormatReliability(fmt.Sprintf("N=%d", n), rel))
		}
	default:
		rows, err := sw.LeaderSweep(ns, *d, *factor, *cmil, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatLeaderTable(rows).Fprint(os.Stdout)
	}
}

// observedRun executes one Theorem 8 election with a ring sink shared by
// the protocol (phase/lock/candidacy events) and the engine (round/send/
// decide events), then exports the merged stream.
func observedRun(n, targetDiam int, factor float64, cmil int64, seed uint64, skipCount1, line bool, obsOut, trcOut string) error {
	ring := dyndiam.NewObsRing(1 << 20)
	metrics := dyndiam.NewMetricsRegistry()
	extra := map[string]int64{
		dyndiam.ExtraNPrime:    int64(factor * float64(n)),
		dyndiam.ExtraCPermille: cmil,
	}
	if skipCount1 {
		extra[dyndiam.ExtraSkipCount1] = 1
	}
	adv := dyndiam.BoundedDiameterAdversary(n, targetDiam, n/2, seed)
	if line {
		adv = dyndiam.StaticAdversary(dyndiam.Line(n))
	}
	ms := dyndiam.NewMachines(dyndiam.LeaderElect{Obs: ring}, n, make([]int64, n), seed, extra)
	eng := &dyndiam.Engine{Machines: ms, Adv: adv, Obs: ring, Metrics: metrics}
	res, err := eng.Run(dyndiam.DefaultRoundBudget)
	if err != nil {
		return err
	}
	events := ring.Events()
	fmt.Printf("N=%d: %d rounds, %d messages, %d events captured (%d dropped)\n",
		n, res.Rounds, res.Messages, len(events), ring.Dropped())
	if obsOut != "" {
		if err := writeWith(obsOut, func(f *os.File) error {
			return dyndiam.WriteEventsJSONL(f, events)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", obsOut)
	}
	if trcOut != "" {
		if err := writeWith(trcOut, func(f *os.File) error {
			return dyndiam.WriteChromeTrace(f, events)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (load at ui.perfetto.dev)\n", trcOut)
	}
	return nil
}

func writeWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
