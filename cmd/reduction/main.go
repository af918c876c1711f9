// Command reduction drives the paper's lower-bound machinery:
//
//	reduction -figure 1        print the Figure 1 type-Γ schedule
//	reduction -figure 2        print the Figure 2 centipede cascade
//	reduction -figure 3        print the Figure 3 mixed-label centipede
//	reduction -thm 6           run the Theorem 6 (CFLOOD) experiment E1
//	reduction -thm 7           run the Theorem 7 (CONSENSUS) experiment E2
//	reduction -diameters       measure composition diameters (O(1) vs Ω(q))
//
// With -trace-out FILE it runs one instrumented Theorem 6 reduction at
// the first -q value and writes the spoil/forwarding event stream as
// Chrome trace-event JSON (load at ui.perfetto.dev); add -obs-out for
// the same stream as JSONL, which cmd/obsview summarizes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"dyndiam"
	"dyndiam/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reduction: ")

	var (
		figure    = flag.Int("figure", 0, "print figure 1, 2, or 3")
		thm       = flag.Int("thm", 0, "run the theorem 6 or 7 experiment")
		diameters = flag.Bool("diameters", false, "measure composition diameters")
		comm      = flag.Bool("comm", false, "communication accounting table (reduction vs trivial vs floor)")
		spoiled   = flag.Bool("spoiled", false, "spoiled-region growth table for a 0-instance")
		dot       = flag.Int("dot", -1, "emit Graphviz DOT of the Theorem 6 network at this round")
		dotParty  = flag.String("dot-party", "reference", "adversary for -dot: reference|alice|bob")
		qs        = flag.String("q", "17,33,65", "comma-separated q values (odd)")
		n         = flag.Int("n", 2, "DISJOINTNESSCP string length for theorem 6")
		seed      = flag.Uint64("seed", 1, "public-coin seed")
		trcOut    = flag.String("trace-out", "", "write one instrumented Theorem 6 run's Chrome trace to this file")
		obsOut    = flag.String("obs-out", "", "write the same run's event stream as JSONL to this file")
	)
	flag.Parse()

	switch {
	case *trcOut != "" || *obsOut != "":
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		if err := observedReduction(qv[0], *n, *seed, *trcOut, *obsOut); err != nil {
			log.Fatal(err)
		}

	case *dot >= 0:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		in := dyndiam.RandomDisjZero(*n, qv[0], 1, *seed)
		net, err := dyndiam.NewCFloodNetwork(in)
		if err != nil {
			log.Fatal(err)
		}
		var party dyndiam.Party
		switch *dotParty {
		case "reference":
			party = dyndiam.Reference
		case "alice":
			party = dyndiam.Alice
		case "bob":
			party = dyndiam.Bob
		default:
			log.Fatalf("unknown party %q", *dotParty)
		}
		fmt.Print(dyndiam.CFloodDOT(net, party, *dot))

	case *figure != 0:
		var out string
		var err error
		switch *figure {
		case 1:
			out, err = dyndiam.Figure1()
		case 2:
			out, err = dyndiam.Figure2()
		case 3:
			out, err = dyndiam.Figure3()
		default:
			log.Fatalf("no figure %d in the paper", *figure)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)

	case *thm == 6:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := dyndiam.Sweep{}.CFloodReduction(qv, *n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatReductionTable(
			"E1: Theorem 6 reduction: fast oracles err on 0-instances, safe oracles cannot beat the horizon",
			rows).Fprint(os.Stdout)

	case *thm == 7:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := dyndiam.Sweep{}.ConsensusReduction(qv, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatConsensusRedTbl(rows).Fprint(os.Stdout)

	case *diameters:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := dyndiam.ConstructionDiameters(qv, *n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatDiameterTable(rows).Fprint(os.Stdout)

	case *spoiled:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := dyndiam.SpoiledGrowth(*n, qv[0], *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatSpoiledTable(3*qv[0]**n+4, rows).Fprint(os.Stdout)

	case *comm:
		qv, err := parseQs(*qs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := dyndiam.CommTable([]int{*n, 2 * *n, 4 * *n}, qv, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatCommTable(rows).Fprint(os.Stdout)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// observedReduction runs the Theorem 6 simulation on a 0-instance (the
// interesting case: the spoiled regions grow until the parties must
// communicate) with an event ring attached, then exports the stream.
func observedReduction(q, n int, seed uint64, trcOut, obsOut string) error {
	in := dyndiam.RandomDisjZero(n, q, 1, seed)
	net, err := dyndiam.NewCFloodNetwork(in)
	if err != nil {
		return err
	}
	ring := dyndiam.NewObsRing(1 << 20)
	setup := dyndiam.CFloodReductionSetup(net, dyndiam.CFlood{}, seed,
		map[string]int64{dyndiam.ExtraDiameter: 10})
	setup.Obs = ring
	res, err := dyndiam.RunReduction(setup, true)
	if err != nil {
		return err
	}
	events := ring.Events()
	fmt.Printf("q=%d N=%d: %d rounds, %d+%d forwarded bits, %d events captured (%d dropped)\n",
		q, net.N, res.Rounds, res.BitsAliceToBob, res.BitsBobToAlice, len(events), ring.Dropped())
	if obsOut != "" {
		if err := cliutil.WriteWith(obsOut, func(f *os.File) error {
			return dyndiam.WriteEventsJSONL(f, events)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", obsOut)
	}
	if trcOut != "" {
		if err := cliutil.WriteWith(trcOut, func(f *os.File) error {
			return dyndiam.WriteChromeTrace(f, events)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (load at ui.perfetto.dev)\n", trcOut)
	}
	return nil
}

func parseQs(s string) ([]int, error) {
	qs, err := cliutil.ParseInts(s)
	if err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, errors.New("-q: need at least one q")
	}
	for _, q := range qs {
		if q < 3 || q%2 == 0 {
			return nil, fmt.Errorf("q must be odd and >= 3, got %d", q)
		}
	}
	return qs, nil
}
