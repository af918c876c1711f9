// Command dynsim runs one protocol over one dynamic-network adversary and
// reports rounds, message/bit totals, and output correctness.
//
// Examples:
//
//	dynsim -proto cflood -n 128 -adv bounded -d 6 -D 12
//	dynsim -proto cflood -n 128 -adv bounded -d 6          (unknown diameter)
//	dynsim -proto leader -n 64 -adv random -nprime 56 -c 100
//	dynsim -proto estimate -n 64 -adv ring -D 32
//
// Observed fast-path floods: -floodfast routes cflood/pflood through the
// word-packed engine path (Engine.RunFlood), which with -obs-out /
// -obs-trace-out / -metrics-out attached emits round-aggregated
// events — round_end, frontier, diff_ops — subsampled by -obs-stride,
// instead of falling back to the slower per-message path:
//
//	dynsim -proto cflood -n 100000 -adv deltachurn -floodfast \
//	    -obs-stride 8 -metrics-out run.prom -obs-trace-out run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dyndiam"
	"dyndiam/internal/adversaries"
	"dyndiam/internal/cliutil"
	"dyndiam/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynsim: ")

	var (
		proto     = flag.String("proto", "cflood", "protocol: "+strings.Join(verify.Names(), "|"))
		n         = flag.Int("n", 64, "number of nodes")
		advName   = flag.String("adv", "random", "adversary: "+strings.Join(adversaries.Names(), "|"))
		d         = flag.Int("d", 4, "target per-round diameter for -adv bounded; interval length for -adv tinterval; rewires per round for -adv deltachurn")
		dKnown    = flag.Int("D", 0, "known diameter bound handed to the protocol (0 = unknown)")
		nprime    = flag.Int("nprime", 0, "size estimate N' for leader/vialeader (0 = exact N)")
		cmil      = flag.Int("c", 200, "N'-accuracy margin c in thousandths")
		seed      = flag.Uint64("seed", 1, "public-coin seed")
		maxRounds = flag.Int("rounds", 50000000, "round budget")
		traceOut  = flag.String("trace-out", "", "record the execution trace (with topologies) to this file")
		traceIn   = flag.String("trace-in", "", "analyze a recorded trace instead of running anything")

		distributed = flag.Bool("distributed", false, "run over internal/wire: coordinator + n node sessions on loopback TCP")
		floodFast   = flag.Bool("floodfast", false, "run via Engine.RunFlood's word-packed fast path (cflood/pflood only)")
		obsOut      = flag.String("obs-out", "", "write observed events as JSONL to this file")
		obsTraceOut = flag.String("obs-trace-out", "", "write observed events as Chrome trace-event JSON to this file")
		metricsOut  = flag.String("metrics-out", "", "write run metrics as Prometheus text to this file")
		obsStride   = flag.Int("obs-stride", 0, "fast-path round sampling stride (0 or 1 = every round)")
	)
	flag.Parse()

	if *traceIn != "" {
		if err := analyzeTrace(*traceIn); err != nil {
			log.Fatal(err)
		}
		return
	}

	adv, err := adversaries.Named(*advName, *n, *d, *seed)
	if err != nil {
		log.Fatal(err)
	}

	extra := map[string]int64{}
	if *dKnown > 0 {
		extra[dyndiam.ExtraDiameter] = int64(*dKnown)
	}
	if *nprime > 0 {
		extra[dyndiam.ExtraNPrime] = int64(*nprime)
	}
	extra[dyndiam.ExtraCPermille] = int64(*cmil)

	if *distributed {
		done, err := runDistributedCLI(*proto, *n, *advName, *d, *seed, *maxRounds, extra)
		if err != nil {
			log.Fatal(err)
		}
		if !done {
			os.Exit(1)
		}
		return
	}

	prob, err := verify.Lookup(*proto)
	if err != nil {
		log.Fatal(err)
	}
	inputs, ms := prob.Machines(*n, *seed, extra)
	eng := &dyndiam.Engine{
		Machines:          ms,
		Adv:               adv,
		CheckConnectivity: true,
		Terminated:        prob.Terminated(),
		ObsRoundStride:    *obsStride,
	}
	if *traceOut != "" {
		eng.Trace = &dyndiam.Trace{KeepTopologies: true}
	}
	var ring *dyndiam.ObsRing
	if *obsOut != "" || *obsTraceOut != "" {
		ring = dyndiam.NewObsRing(1 << 16)
		eng.Obs = ring
	}
	var reg *dyndiam.MetricsRegistry
	if *metricsOut != "" {
		reg = dyndiam.NewMetricsRegistry()
		eng.Metrics = reg
	}

	var res *dyndiam.Result
	if *floodFast {
		if prob.TermNode < 0 {
			log.Fatalf("-floodfast requires a flood protocol (one whose source's decision ends the run), got %q", *proto)
		}
		if *traceOut != "" {
			log.Fatal("-floodfast is incompatible with -trace-out (a Trace forces the per-message path)")
		}
		res, err = eng.RunFlood(*maxRounds, dyndiam.FloodStopNode(prob.TermNode))
	} else {
		res, err = eng.Run(*maxRounds)
	}
	if err != nil {
		log.Fatal(err)
	}

	if ring != nil {
		if *obsOut != "" {
			if err := cliutil.WriteWith(*obsOut, func(f *os.File) error {
				return dyndiam.WriteEventsJSONL(f, ring.Events())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("events        %s (%d events, %d dropped)\n", *obsOut, ring.Len(), ring.Dropped())
		}
		if *obsTraceOut != "" {
			if err := cliutil.WriteWith(*obsTraceOut, func(f *os.File) error {
				return dyndiam.WriteChromeTrace(f, ring.Events())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("chrome trace  %s (load at ui.perfetto.dev)\n", *obsTraceOut)
		}
	}
	if reg != nil {
		if err := cliutil.WriteWith(*metricsOut, func(f *os.File) error {
			return dyndiam.WriteMetricsText(f, reg)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics       %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := cliutil.WriteWith(*traceOut, func(f *os.File) error {
			return dyndiam.WriteTrace(f, eng.Trace, *n)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace         %s (%d rounds)\n", *traceOut, len(eng.Trace.Stats))
	}

	if printResult(prob.Protocol.Name(), *advName, *n, res) > 0 {
		fmt.Printf("sample output node0=%d node%d=%d\n", res.Outputs[0], *n-1, res.Outputs[*n-1])
	}
	audit := prob.Audit(inputs, ms, res)
	if audit == nil {
		fmt.Println("audit         ok")
	} else {
		fmt.Printf("audit         FAILED: %v\n", audit)
	}
	if !res.Done || audit != nil {
		os.Exit(1)
	}
}

// printResult prints the run summary of both execution paths and returns
// how many nodes decided.
func printResult(protocol, advName string, n int, res *dyndiam.Result) int {
	fmt.Printf("protocol      %s\n", protocol)
	fmt.Printf("nodes         %d\n", n)
	fmt.Printf("adversary     %s\n", advName)
	fmt.Printf("terminated    %v (round %d)\n", res.Done, res.Rounds)
	fmt.Printf("messages      %d\n", res.Messages)
	fmt.Printf("payload bits  %d\n", res.Bits)
	decided := 0
	for _, ok := range res.Decided {
		if ok {
			decided++
		}
	}
	fmt.Printf("decided nodes %d/%d\n", decided, n)
	return decided
}

// analyzeTrace loads a recorded execution and reports its aggregate
// statistics plus, when topologies were kept, the dynamic diameter.
func analyzeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, n, err := dyndiam.ReadTrace(f)
	if err != nil {
		return err
	}
	var msgs, bits int
	for _, st := range tr.Stats {
		msgs += st.Senders
		bits += st.Bits
	}
	fmt.Printf("trace         %s\n", path)
	fmt.Printf("nodes         %d\n", n)
	fmt.Printf("rounds        %d\n", len(tr.Stats))
	fmt.Printf("messages      %d\n", msgs)
	fmt.Printf("payload bits  %d\n", bits)
	if tr.KeepTopologies {
		d, exact := dyndiam.DynamicDiameter(tr.Topologies())
		fmt.Printf("dyn diameter  %d (certified %v)\n", d, exact)
	}
	return nil
}
