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

	"dyndiam"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynsim: ")

	var (
		proto     = flag.String("proto", "cflood", "protocol: cflood|pflood|consensus|vialeader|leader|estimate|sum|max|hearfrom|hearfromexact|majority")
		n         = flag.Int("n", 64, "number of nodes")
		advName   = flag.String("adv", "random", "adversary: line|ring|star|complete|grid|hypercube|random|bounded|rotating|staller|tinterval|dual|deltachurn")
		d         = flag.Int("d", 4, "target per-round diameter for -adv bounded; interval length for -adv tinterval; rewires per round for -adv deltachurn")
		dKnown    = flag.Int("D", 0, "known diameter bound handed to the protocol (0 = unknown)")
		nprime    = flag.Int("nprime", 0, "size estimate N' for leader/vialeader (0 = exact N)")
		cmil      = flag.Int("c", 200, "N'-accuracy margin c in thousandths")
		seed      = flag.Uint64("seed", 1, "public-coin seed")
		maxRounds = flag.Int("rounds", 50000000, "round budget")
		traceOut  = flag.String("trace-out", "", "record the execution trace (with topologies) to this file")
		traceIn   = flag.String("trace-in", "", "analyze a recorded trace instead of running anything")

		distributed = flag.Bool("distributed", false, "run over internal/wire: coordinator + n node sessions on loopback TCP (cflood|pflood|leader|consensus)")
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

	adv, err := buildAdversary(*advName, *n, *d, *seed)
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

	inputs := make([]int64, *n)
	var p dyndiam.Protocol
	term := dyndiam.AllDecided
	switch *proto {
	case "cflood":
		p = dyndiam.CFlood{}
		inputs[0] = 1
		term = dyndiam.NodeDecided(0)
	case "pflood":
		p = dyndiam.PFlood{}
		inputs[0] = 1
		term = dyndiam.NodeDecided(0)
	case "consensus":
		p = dyndiam.KnownDConsensus{}
		for v := range inputs {
			inputs[v] = int64(v % 2)
		}
	case "vialeader":
		p = dyndiam.ViaLeaderConsensus{}
		for v := range inputs {
			inputs[v] = int64(v % 2)
		}
	case "leader":
		p = dyndiam.LeaderElect{}
	case "estimate":
		p = dyndiam.EstimateN{}
	case "sum":
		p = dyndiam.SumEstimate{}
		for v := range inputs {
			inputs[v] = int64(v % 5)
		}
	case "hearfromexact":
		p = dyndiam.HearFromExact{}
	case "max":
		p = dyndiam.Max{}
		for v := range inputs {
			inputs[v] = int64((v * 7919) % 100003)
		}
	case "hearfrom":
		p = dyndiam.HearFrom{}
	case "majority":
		p = dyndiam.MajorityProbe{}
	default:
		log.Fatalf("unknown protocol %q", *proto)
	}

	ms := dyndiam.NewMachines(p, *n, inputs, *seed, extra)
	eng := &dyndiam.Engine{
		Machines:          ms,
		Adv:               adv,
		CheckConnectivity: true,
		Terminated:        term,
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
		if *proto != "cflood" && *proto != "pflood" {
			log.Fatalf("-floodfast requires -proto cflood or pflood, got %q", *proto)
		}
		if *traceOut != "" {
			log.Fatal("-floodfast is incompatible with -trace-out (a Trace forces the per-message path)")
		}
		res, err = eng.RunFlood(*maxRounds, dyndiam.FloodStopNode(0))
	} else {
		res, err = eng.Run(*maxRounds)
	}
	if err != nil {
		log.Fatal(err)
	}

	if ring != nil {
		if *obsOut != "" {
			if err := writeFile(*obsOut, func(f *os.File) error {
				return dyndiam.WriteEventsJSONL(f, ring.Events())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("events        %s (%d events, %d dropped)\n", *obsOut, ring.Len(), ring.Dropped())
		}
		if *obsTraceOut != "" {
			if err := writeFile(*obsTraceOut, func(f *os.File) error {
				return dyndiam.WriteChromeTrace(f, ring.Events())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("chrome trace  %s (load at ui.perfetto.dev)\n", *obsTraceOut)
		}
	}
	if reg != nil {
		if err := writeFile(*metricsOut, func(f *os.File) error {
			return dyndiam.WriteMetricsText(f, reg)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics       %s\n", *metricsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := dyndiam.WriteTrace(f, eng.Trace, *n); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace         %s (%d rounds)\n", *traceOut, len(eng.Trace.Stats))
	}

	fmt.Printf("protocol      %s\n", p.Name())
	fmt.Printf("nodes         %d\n", *n)
	fmt.Printf("adversary     %s\n", *advName)
	fmt.Printf("terminated    %v (round %d)\n", res.Done, res.Rounds)
	fmt.Printf("messages      %d\n", res.Messages)
	fmt.Printf("payload bits  %d\n", res.Bits)
	decided := 0
	for _, ok := range res.Decided {
		if ok {
			decided++
		}
	}
	fmt.Printf("decided nodes %d/%d\n", decided, *n)
	if decided > 0 {
		fmt.Printf("sample output node0=%d node%d=%d\n", res.Outputs[0], *n-1, res.Outputs[*n-1])
	}
	if !res.Done {
		os.Exit(1)
	}
}

func buildAdversary(name string, n, d int, seed uint64) (dyndiam.Adversary, error) {
	switch name {
	case "line":
		return dyndiam.StaticAdversary(dyndiam.Line(n)), nil
	case "ring":
		return dyndiam.StaticAdversary(dyndiam.Ring(n)), nil
	case "star":
		return dyndiam.StaticAdversary(dyndiam.Star(n)), nil
	case "complete":
		return dyndiam.StaticAdversary(dyndiam.Complete(n)), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("grid adversary needs a square n, got %d", n)
		}
		return dyndiam.StaticAdversary(dyndiam.Grid(side, side)), nil
	case "hypercube":
		dim := 0
		for 1<<uint(dim) < n {
			dim++
		}
		if 1<<uint(dim) != n {
			return nil, fmt.Errorf("hypercube adversary needs a power-of-two n, got %d", n)
		}
		return dyndiam.StaticAdversary(dyndiam.Hypercube(dim)), nil
	case "random":
		return dyndiam.RandomConnectedAdversary(n, n/2, seed), nil
	case "bounded":
		return dyndiam.BoundedDiameterAdversary(n, d, n/2, seed), nil
	case "rotating":
		return dyndiam.RotatingStarAdversary(n), nil
	case "staller":
		return dyndiam.StallerAdversary(n, 0), nil
	case "tinterval":
		return dyndiam.TIntervalAdversary(n, d, n/4, seed), nil
	case "dual":
		var chords [][2]int
		for i := 0; i < n/2; i++ {
			chords = append(chords, [2]int{i, (i + n/2) % n})
		}
		return dyndiam.DualGraphAdversary(dyndiam.Ring(n), chords, 0.5, seed), nil
	case "deltachurn":
		// Native delta adversary: spanning tree + n/8 churn slots, d of
		// which rewire per round as an O(d) edge-op script — the regime
		// where the fast path's delta ingestion pays off at huge n.
		extra := n / 8
		if extra < 1 {
			extra = 1
		}
		rewires := d
		if rewires > extra {
			rewires = extra
		}
		return dyndiam.DeltaChurnAdversary(n, extra, rewires, seed), nil
	}
	return nil, fmt.Errorf("unknown adversary %q", name)
}

// writeFile creates path, runs fn on it, and closes it, reporting the
// first error.
func writeFile(path string, fn func(*os.File) error) error {
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
