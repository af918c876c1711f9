package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dyndiam/internal/obs"
)

// TestSweepMetricsParallelEqualSequential is the roll-up counterpart of
// TestSweepsParallelEqualSequential: with sweep metrics enabled, the
// aggregate registry's snapshot must be deep-equal at every worker count,
// because per-cell registries are merged in cell-index order and every
// cell's content is a pure function of its parameters.
func TestSweepMetricsParallelEqualSequential(t *testing.T) {
	run := func(workers int) []obs.MetricPoint {
		reg := obs.NewRegistry()
		s := Sweep{Workers: workers, Metrics: reg}
		if _, err := s.GapTable([]int{24, 32, 48}, 4, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LeaderSweep([]int{16, 20}, 4, 0.9, 150, 11); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MajoritySweep(24, []float64{0.4, 0.8}, 4, 3); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("no metrics collected")
	}
	var cells int64
	for _, p := range seq {
		if p.Name == "sweep_cells_total" {
			cells = p.Value
		}
	}
	if cells != 3+2+2 {
		t.Fatalf("sweep_cells_total = %d want 7", cells)
	}
	for _, w := range []int{2, 3, 16} {
		par := run(w)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: metric roll-up differs from sequential:\n seq %+v\n par %+v", w, seq, par)
		}
	}
}

// TestGapTableUsesFloodFastPath pins that the E4 sweep's CFLOOD runs go
// through the word-packed fast path: each cell runs known-D and unknown-D
// once, so the merged registry must count exactly two fast-path runs per
// cell.
func TestGapTableUsesFloodFastPath(t *testing.T) {
	reg := obs.NewRegistry()
	sizes := []int{24, 32}
	if _, err := (Sweep{Metrics: reg}).GapTable(sizes, 4, 7); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine_floodfast_runs_total").Value(); got != int64(2*len(sizes)) {
		t.Fatalf("engine_floodfast_runs_total = %d, want %d", got, 2*len(sizes))
	}
}

// TestSweepMetricsDisabledByDefault pins the zero-overhead-when-off side:
// under the zero Sweep, cells see a nil registry, and a sweep without
// Metrics leaves another sweep's registry untouched.
func TestSweepMetricsDisabledByDefault(t *testing.T) {
	if err := (Sweep{}).ForEachCell(3, func(i int, reg *obs.Registry) error {
		if reg != nil {
			t.Errorf("cell %d got a registry under the zero Sweep", i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := (Sweep{Metrics: reg}).MajoritySweep(24, []float64{0.6}, 4, 3); err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	if _, err := (Sweep{}).MajoritySweep(24, []float64{0.6}, 4, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("a sweep without Metrics changed another sweep's registry")
	}
}

// TestReductionSweepMetrics checks the sequential reduction sweeps feed
// Sweep.Metrics, and that the result exports cleanly as Prometheus text.
func TestReductionSweepMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := (Sweep{Metrics: reg}).CFloodReduction([]int{9}, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("reduction_rounds_total").Value(); got == 0 {
		t.Fatal("reduction recorded no rounds")
	}
	if got := reg.Counter("reduction_lemma_violations").Value(); got != 0 {
		t.Fatalf("reduction recorded %d lemma violations", got)
	}
	var buf bytes.Buffer
	if err := obs.WriteMetricsText(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("# TYPE reduction_bits_alice_to_bob counter")) {
		t.Fatalf("exposition missing reduction counters:\n%s", buf.String())
	}
}

// TestSweepSpansParallelEqualSequential pins the span-capture counterpart:
// the captured cell-span stream must be byte-identical at every worker
// count because spans are emitted in cell-index order after the sweep.
func TestSweepSpansParallelEqualSequential(t *testing.T) {
	run := func(workers int) []obs.Event {
		ring := obs.NewRing(64)
		if _, err := (Sweep{Workers: workers, Spans: ring}).GapTable([]int{24, 32, 48}, 4, 7); err != nil {
			t.Fatal(err)
		}
		return ring.Events()
	}
	seq := run(1)
	if len(seq) != 2*3 {
		t.Fatalf("captured %d events, want one begin/end pair per cell (6)", len(seq))
	}
	key := obs.Intern("sweep_cell")
	for i := 0; i < 3; i++ {
		b, e := seq[2*i], seq[2*i+1]
		if b.Kind != obs.KindSpanBegin || b.Round != int32(i) || b.Node != int32(i) ||
			b.Track != 1 || b.Name != key || b.A <= 0 {
			t.Fatalf("cell %d begin = %+v", i, b)
		}
		if e.Kind != obs.KindSpanEnd || e.Round != int32(i+1) || e.Node != int32(i) ||
			e.Track != 1 || e.Name != key || e.A != b.A {
			t.Fatalf("cell %d end = %+v (begin %+v)", i, e, b)
		}
	}
	for _, w := range []int{2, 3, 16} {
		par := run(w)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: span capture differs from sequential:\n seq %+v\n par %+v", w, seq, par)
		}
	}
}

// TestSweepSpansDisabledByDefault pins the off side of span capture: a
// sweep without Spans adds nothing to another sweep's sink.
func TestSweepSpansDisabledByDefault(t *testing.T) {
	ring := obs.NewRing(64)
	if _, err := (Sweep{Spans: ring}).MajoritySweep(24, []float64{0.6}, 4, 3); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 2 {
		t.Fatalf("captured %d events, want one begin/end pair", ring.Len())
	}
	if _, err := (Sweep{}).MajoritySweep(24, []float64{0.6}, 4, 3); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 2 {
		t.Fatal("a sweep without Spans captured spans")
	}
}

// TestConcurrentSweepsIsolated runs two sweeps side by side under
// different Sweep values (1 vs 4 workers, each with its own registry and
// span sink) and requires each result, metric snapshot and span stream to
// deep-equal the same sweep run alone: concurrent sweeps share no state.
func TestConcurrentSweepsIsolated(t *testing.T) {
	type output struct {
		rows    interface{}
		metrics []obs.MetricPoint
		spans   []obs.Event
	}
	sweeps := []func(Sweep) (interface{}, error){
		func(s Sweep) (interface{}, error) { return s.GapTable([]int{24, 32, 48}, 4, 7) },
		func(s Sweep) (interface{}, error) { return s.LeaderSweep([]int{16, 20}, 4, 0.9, 150, 11) },
	}
	workers := []int{1, 4}
	run := func(i int) (output, error) {
		reg, ring := obs.NewRegistry(), obs.NewRing(64)
		rows, err := sweeps[i](Sweep{Workers: workers[i], Metrics: reg, Spans: ring})
		return output{rows, reg.Snapshot(), ring.Events()}, err
	}
	want := make([]output, len(sweeps))
	for i := range sweeps {
		var err error
		if want[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 3; rep++ {
		got := make([]output, len(sweeps))
		errs := make([]error, len(sweeps))
		var wg sync.WaitGroup
		for i := range sweeps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = run(i)
			}(i)
		}
		wg.Wait()
		for i := range sweeps {
			if errs[i] != nil {
				t.Fatalf("sweep %d: %v", i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("rep %d: sweep %d (workers %d) differs from its sequential run:\n got %+v\nwant %+v",
					rep, i, workers[i], got[i], want[i])
			}
		}
	}
}
