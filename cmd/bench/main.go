// Command bench captures the repository's tracked performance baseline: it
// runs the headline experiment workloads under testing.Benchmark and writes
// a BENCH_<date>.json file with ns/op, allocs/op, bytes/op, and rounds/s
// for each. Committing the file pins the numbers a change claims to beat.
//
//	go run ./cmd/bench                  # full baseline -> BENCH_<date>.json
//	go run ./cmd/bench -short           # shrunken workloads (CI smoke)
//	go run ./cmd/bench -compare FILE    # per-benchmark deltas vs an old baseline
//
// With -compare, each benchmark prints its ns/op delta against the old
// baseline and the process exits non-zero if any benchmark regressed by
// more than -max-regress percent (default 20) — the regression gate CI
// runs against the committed BENCH_*.json.
//
// Each benchmark runs repeats times and every recorded figure is the
// median of those runs, so a single slow pass on a shared host neither
// fails the gate nor lands in a baseline.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dyndiam"
)

type benchResult struct {
	Name         string             `json:"name"`
	NsPerOp      float64            `json:"ns_per_op"`
	AllocsPerOp  int64              `json:"allocs_per_op"`
	BytesPerOp   int64              `json:"bytes_per_op"`
	RoundsPerSec float64            `json:"rounds_per_sec,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

type baseline struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Short      bool          `json:"short,omitempty"`
	Repeats    int           `json:"repeats,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")

	var (
		short      = flag.Bool("short", false, "shrink workloads for a smoke run")
		out        = flag.String("out", "", "output path (default BENCH_<date>.json)")
		compare    = flag.String("compare", "", "old baseline JSON to print per-benchmark deltas against")
		maxRegress = flag.Float64("max-regress", 20, "with -compare, exit 1 if any ns/op or rounds/s regresses more than this percent")
		only       = flag.String("only", "", "run only benchmarks whose name contains this substring")
	)
	flag.Parse()

	base := baseline{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
		Repeats:    repeats,
	}

	for _, bm := range workloads(*short) {
		if *only != "" && !strings.Contains(bm.name, *only) {
			continue
		}
		res := measure(bm.name, bm.fn)
		base.Benchmarks = append(base.Benchmarks, res)
		fmt.Printf("%-28s %12.0f ns/op %10d allocs/op %12d B/op", res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		if res.RoundsPerSec > 0 {
			fmt.Printf(" %12.0f rounds/s", res.RoundsPerSec)
		}
		fmt.Println()
	}

	path := *out
	if path == "" {
		path = "BENCH_" + base.Date + ".json"
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)

	if *compare != "" {
		worst, err := printComparison(*compare, base)
		if err != nil {
			log.Fatal(err)
		}
		if worst > *maxRegress {
			log.Fatalf("FAIL: worst ns/op regression %.1f%% exceeds -max-regress %.1f%%", worst, *maxRegress)
		}
	}
}

// repeats is how many times each benchmark runs; its figures are medians.
const repeats = 3

// measure runs fn repeats times under testing.Benchmark and returns the
// median of each figure: ns/op, allocs/op, bytes/op and rounds/s each
// take their own median, and the extra metrics come from the run with the
// median ns/op.
func measure(name string, fn func(b *testing.B)) benchResult {
	runs := make([]benchResult, repeats)
	for i := range runs {
		r := testing.Benchmark(fn)
		runs[i] = benchResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Metrics:     maps.Clone(r.Extra),
		}
		if rounds, ok := r.Extra["rounds/op"]; ok && r.NsPerOp() > 0 {
			runs[i].RoundsPerSec = rounds / float64(r.NsPerOp()) * 1e9
		}
	}
	slices.SortFunc(runs, func(a, b benchResult) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	res := runs[len(runs)/2]
	res.AllocsPerOp = median(runs, func(r benchResult) int64 { return r.AllocsPerOp })
	res.BytesPerOp = median(runs, func(r benchResult) int64 { return r.BytesPerOp })
	res.RoundsPerSec = median(runs, func(r benchResult) float64 { return r.RoundsPerSec })
	return res
}

// median returns the median of one figure across runs.
func median[T int64 | float64](runs []benchResult, of func(benchResult) T) T {
	vals := make([]T, len(runs))
	for i, r := range runs {
		vals[i] = of(r)
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// workloads mirrors the headline bench_test.go benchmarks so the baseline
// file and `go test -bench` track the same quantities, plus an engine
// rounds/s probe. Benchmarks run sequentially-seeded sweeps; the parallel
// variant exercises the sweep worker pool at GOMAXPROCS.
func workloads(short bool) []struct {
	name string
	fn   func(b *testing.B)
} {
	q, leaderN, gapN, ringN := 25, 48, 128, 1024
	gapSizes := []int{64, 96, 128}
	if short {
		q, leaderN, gapN, ringN = 17, 24, 48, 256
		gapSizes = []int{32, 48}
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Thm6CFloodReduction", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := dyndiam.Sweep{}.CFloodReduction([]int{q}, 2, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.LemmaViolations != 0 {
						b.Fatalf("lemma violations: %d", r.LemmaViolations)
					}
				}
			}
		}},
		{"Thm8LeaderElect", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := dyndiam.Sweep{}.LeaderSweep([]int{leaderN}, 4, 0.9, 150, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if !rows[0].Correct {
					b.Fatal("wrong leader")
				}
			}
		}},
		// The gap sweeps run a fixed seed: a handful of (seed, N) cells
		// fail diameter certification by construction (e.g. seed 17 at
		// N=96, unchanged since the map-based graph), and a fixed seed
		// also keeps the timed work identical across iterations.
		{"GapTable", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (dyndiam.Sweep{}).GapTable([]int{gapN}, 4, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"GapTableParallelSweep", func(b *testing.B) {
			b.ReportAllocs()
			sw := dyndiam.Sweep{}
			for i := 0; i < b.N; i++ {
				if _, err := sw.GapTable(gapSizes, 4, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// RunFlood engages the word-packed fast path here (CFlood machines,
		// no observers): same results as the message path, word-OR cost.
		{"EngineRingFlood", func(b *testing.B) {
			b.ReportAllocs()
			g := dyndiam.Ring(ringN)
			rounds := 0
			for i := 0; i < b.N; i++ {
				inputs := make([]int64, ringN)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, ringN, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: int64(ringN / 2)})
				eng := &dyndiam.Engine{
					Machines: ms,
					Adv:      dyndiam.StaticAdversary(g),
				}
				res, err := eng.RunFlood(2*ringN, dyndiam.FloodStopNode(0))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("flood did not confirm")
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		}},
		// The identical workload forced through the per-message round loop:
		// the gap to EngineRingFlood is the fast path's speedup.
		{"EngineRingFloodMsg", func(b *testing.B) {
			b.ReportAllocs()
			g := dyndiam.Ring(ringN)
			rounds := 0
			for i := 0; i < b.N; i++ {
				inputs := make([]int64, ringN)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, ringN, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: int64(ringN / 2)})
				eng := &dyndiam.Engine{
					Machines:   ms,
					Adv:        dyndiam.StaticAdversary(g),
					Terminated: dyndiam.NodeDecided(0),
				}
				res, err := eng.Run(2 * ringN)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		}},
		// Million-node-class probe: CFLOOD over a delta-encoded churn
		// network. The adversary ships O(rewires) edge ops per round against
		// one mutable CSR snapshot; the fast path never materializes a
		// second graph. The persistent spanning tree (diameter O(log N))
		// makes D=256 a safe known bound, so the run is 256 rounds.
		{"EngineHugeN", func(b *testing.B) {
			b.ReportAllocs()
			hugeN := 100_000
			if short {
				hugeN = 20_000
			}
			const hugeD = 256
			rounds := 0
			for i := 0; i < b.N; i++ {
				inputs := make([]int64, hugeN)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, hugeN, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: hugeD})
				eng := &dyndiam.Engine{
					Machines: ms,
					Adv:      dyndiam.DeltaChurnAdversary(hugeN, hugeN/8, hugeN/64, uint64(i)),
				}
				res, err := eng.RunFlood(2*hugeD, dyndiam.FloodStopNode(0))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("flood did not confirm")
				}
				for _, m := range ms {
					if !dyndiam.Informed(m) {
						b.Fatal("confirmed before everyone was informed")
					}
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		}},
		// The same workload with a ring event sink and a metrics registry
		// attached: the gap to EngineRingFlood is the observer overhead
		// the "zero when off, bounded when on" contract bounds.
		{"EngineRingFloodObserved", func(b *testing.B) {
			b.ReportAllocs()
			g := dyndiam.Ring(ringN)
			sink := dyndiam.NewObsRing(1 << 16)
			rounds := 0
			var events int64
			for i := 0; i < b.N; i++ {
				sink.Reset()
				inputs := make([]int64, ringN)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, ringN, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: int64(ringN / 2)})
				eng := &dyndiam.Engine{
					Machines:   ms,
					Adv:        dyndiam.StaticAdversary(g),
					Terminated: dyndiam.NodeDecided(0),
					Obs:        sink,
					Metrics:    dyndiam.NewMetricsRegistry(),
				}
				res, err := eng.Run(2 * ringN)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
				events += int64(sink.Len()) + int64(sink.Dropped())
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		}},
		// EngineRingFlood with observers attached: since obs v2 the fast
		// path accepts a sink and emits round aggregates instead of
		// declining, so the gap to EngineRingFlood is the fast path's
		// observation overhead, and the gap to EngineRingFloodObserved is
		// the speedup observed runs keep. The floodfast-runs counter
		// proves every iteration really took the fast path.
		{"EngineRingFloodObservedFast", func(b *testing.B) {
			b.ReportAllocs()
			g := dyndiam.Ring(ringN)
			sink := dyndiam.NewObsRing(1 << 16)
			reg := dyndiam.NewMetricsRegistry()
			rounds := 0
			var events int64
			for i := 0; i < b.N; i++ {
				sink.Reset()
				inputs := make([]int64, ringN)
				inputs[0] = 1
				ms := dyndiam.NewMachines(dyndiam.CFlood{}, ringN, inputs, uint64(i),
					map[string]int64{dyndiam.ExtraDiameter: int64(ringN / 2)})
				eng := &dyndiam.Engine{
					Machines: ms,
					Adv:      dyndiam.StaticAdversary(g),
					Obs:      sink,
					Metrics:  reg,
				}
				res, err := eng.RunFlood(2*ringN, dyndiam.FloodStopNode(0))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("flood did not confirm")
				}
				rounds += res.Rounds
				events += int64(sink.Len()) + int64(sink.Dropped())
			}
			for _, p := range reg.Snapshot() {
				if p.Name == "engine_floodfast_runs_total" && p.Value != int64(b.N) {
					b.Fatalf("fast path ran %d of %d iterations (silent fallback)", p.Value, b.N)
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		}},
	}
}

// printComparison prints each current benchmark against the old baseline
// and returns the worst ns/op regression as a percentage (0 when nothing
// regressed). Benchmarks absent from the old baseline (for example newly
// added workloads) are reported but never gate.
func printComparison(oldPath string, cur baseline) (worst float64, err error) {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return 0, err
	}
	var old baseline
	if err := json.Unmarshal(data, &old); err != nil {
		return 0, err
	}
	if old.Short != cur.Short {
		fmt.Printf("warning: comparing short=%v against short=%v workloads\n", cur.Short, old.Short)
	}
	prev := map[string]benchResult{}
	for _, r := range old.Benchmarks {
		prev[r.Name] = r
	}
	fmt.Printf("vs %s (%s):\n", oldPath, old.Date)
	for _, r := range cur.Benchmarks {
		p, ok := prev[r.Name]
		if !ok {
			fmt.Printf("  %-28s (new, no baseline)\n", r.Name)
			continue
		}
		if r.NsPerOp == 0 || p.NsPerOp == 0 {
			continue
		}
		delta := (r.NsPerOp - p.NsPerOp) / p.NsPerOp * 100
		if delta > worst {
			worst = delta
		}
		fmt.Printf("  %-28s %+7.1f%% ns/op (%.0f -> %.0f), allocs %d -> %d",
			r.Name, delta, p.NsPerOp, r.NsPerOp, p.AllocsPerOp, r.AllocsPerOp)
		// Throughput benchmarks also gate on rounds/s: a drop is a
		// regression even when ns/op moved for benign reasons (e.g. a
		// workload now finishing in fewer, slower rounds would hide there).
		if r.RoundsPerSec > 0 && p.RoundsPerSec > 0 {
			rpsDrop := (p.RoundsPerSec - r.RoundsPerSec) / p.RoundsPerSec * 100
			if rpsDrop > worst {
				worst = rpsDrop
			}
			fmt.Printf(", rounds/s %.0f -> %.0f", p.RoundsPerSec, r.RoundsPerSec)
		}
		fmt.Println()
	}
	return worst, nil
}
