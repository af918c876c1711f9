// Command gaptable regenerates the headline experiment E4: the cost of
// CFLOOD (and consensus) with known vs unknown diameter over low-diameter
// dynamic networks, next to the paper's Ω((N/log N)^¼) lower-bound curve
// for the unknown case.
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
	log.SetPrefix("gaptable: ")

	var (
		sizes     = flag.String("sizes", "32,64,128,256,512", "comma-separated node counts")
		d         = flag.Int("d", 4, "target per-round diameter")
		seed      = flag.Uint64("seed", 1, "public-coin seed")
		consensus = flag.Bool("consensus", false, "also run the consensus gap (slower)")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	ns, err := cliutil.ParseInts(*sizes)
	if err == nil && len(ns) == 0 {
		err = errors.New("-sizes: need at least one size")
	}
	if err != nil {
		log.Fatal(err)
	}

	var sw dyndiam.Sweep
	rows, err := sw.GapTable(ns, *d, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *asCSV {
		if err := dyndiam.WriteTableCSV(os.Stdout, dyndiam.FormatGapTable(rows)); err != nil {
			log.Fatal(err)
		}
		return
	}
	dyndiam.FormatGapTable(rows).Fprint(os.Stdout)

	if *consensus {
		fmt.Println()
		crows, err := sw.ConsensusGap(ns, *d, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dyndiam.FormatConsensusGapTbl(crows).Fprint(os.Stdout)
	}
}
