package counting

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func TestSketchEstimateConcentrates(t *testing.T) {
	// Feed a sketch the true minima of C holders and check the estimator.
	root := rng.New(11)
	for _, c := range []int{5, 50, 500} {
		k := 96
		s := NewSketch(k)
		for node := 0; node < c; node++ {
			s.SetOwn(7, 1, root.Split(uint64(node)))
		}
		got := s.Estimate(7)
		if math.Abs(got-float64(c))/float64(c) > 0.35 {
			t.Errorf("C=%d: estimate %.1f off by more than 35%%", c, got)
		}
	}
}

func TestSketchNeverOverCountsUnderPartialInfo(t *testing.T) {
	// Dropping contributions can only lower the estimate (one-sided
	// error modulo estimator concentration): estimate over a subset of
	// holders <= estimate over all holders.
	root := rng.New(5)
	k := 64
	full := NewSketch(k)
	partial := NewSketch(k)
	const c = 200
	for node := 0; node < c; node++ {
		full.SetOwn(3, 9, root.Split(uint64(node)))
		if node < c/3 {
			partial.SetOwn(3, 9, root.Split(uint64(node)))
		}
	}
	if partial.Estimate(3) > full.Estimate(3) {
		t.Errorf("partial estimate %.1f > full estimate %.1f", partial.Estimate(3), full.Estimate(3))
	}
}

func TestSketchMissingCopiesEstimateZero(t *testing.T) {
	s := NewSketch(8)
	s.Merge(4, 0, 0.5) // only one copy has information
	if got := s.Estimate(4); got != 0 {
		t.Errorf("estimate with missing copies = %v, want 0", got)
	}
	if got := s.Estimate(99); got != 0 {
		t.Errorf("estimate of unseen value = %v, want 0", got)
	}
}

func TestSketchMergeKeepsMinimum(t *testing.T) {
	s := NewSketch(4)
	s.Merge(1, 2, 0.7)
	s.Merge(1, 2, 0.9) // larger: ignored
	s.Merge(1, 2, 0.3) // smaller: kept
	v, c, m, ok := s.PickRecord(rng.New(1))
	_ = v
	_ = c
	_ = m
	_ = ok
	// Inspect through Estimate once all copies are set.
	for copy := 0; copy < 4; copy++ {
		s.Merge(1, copy, 0.3)
	}
	want := float64(3) / (4 * float64(float32(0.3)))
	if got := s.Estimate(1); math.Abs(got-want) > 1e-6 {
		t.Errorf("estimate = %v, want %v", got, want)
	}
}

func TestSketchMergeIgnoresMalformedCopy(t *testing.T) {
	s := NewSketch(4)
	s.Merge(1, -1, 0.5)
	s.Merge(1, 4, 0.5)
	if len(s.Values()) == 0 {
		return // out-of-range copies were dropped before creating a row
	}
	if got := s.Estimate(1); got != 0 {
		t.Errorf("estimate after malformed merges = %v, want 0", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(value int64, copyRaw uint8, min float32) bool {
		if value < 0 {
			value = -value
		}
		copy := int(copyRaw)
		var w bitio.Writer
		EncodeRecord(&w, value, copy, min)
		rd := bitio.NewReader(w.Bytes(), w.Len())
		v, c, m, err := DecodeRecord(rd)
		if err != nil {
			return false
		}
		same := v == value && c == copy
		if math.IsNaN(float64(min)) {
			return same && math.IsNaN(float64(m))
		}
		return same && m == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordFitsBudget(t *testing.T) {
	var w bitio.Writer
	EncodeRecord(&w, int64(1<<20), 255, 1e-30)
	if w.Len() > dynet.Budget(1<<20) {
		t.Errorf("record of %d bits exceeds budget %d", w.Len(), dynet.Budget(1<<20))
	}
}

func TestMajorityThresholdSoundnessAndCompleteness(t *testing.T) {
	// For every admissible (N, N', c): the threshold exceeds N/2 for the
	// largest admissible N (soundness with a perfect estimate), and a
	// complete unanimous count reaches it (completeness).
	for _, n := range []int{30, 100, 1000, 54321} {
		for _, c := range []float64{0.05, 0.1, 0.2, 1.0 / 3} {
			maxRel := 1.0/3 - c
			for _, rel := range []float64{-maxRel, 0, maxRel} {
				nPrime := int(float64(n) * (1 + rel))
				tau := MajorityThreshold(nPrime, c)
				if tau <= float64(n)/2 {
					t.Errorf("n=%d c=%.2f N'=%d: tau %.1f <= N/2 (unsound)", n, c, nPrime, tau)
				}
				if MajorityCompletenessBound(nPrime, c) <= tau {
					t.Errorf("n=%d c=%.2f N'=%d: completeness bound below tau", n, c, nPrime)
				}
				// Completeness: N·(1-eps) must reach tau.
				eps := c / 4
				if float64(n)*(1-eps) < tau {
					t.Errorf("n=%d c=%.2f N'=%d: unanimous count %.1f below tau %.1f",
						n, c, nPrime, float64(n)*(1-eps), tau)
				}
			}
		}
	}
}

func TestMajorityThresholdRejectsBadMargin(t *testing.T) {
	for _, c := range []float64{0, -0.1, 0.34} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("c=%v: no panic", c)
				}
			}()
			MajorityThreshold(100, c)
		}()
	}
}

func TestEstimateNProtocol(t *testing.T) {
	const n = 32
	d := graph.Ring(n).StaticDiameter()
	ms := dynet.NewMachines(EstimateN{}, n, nil, 7, map[string]int64{
		ExtraD: int64(d),
		ExtraK: 64,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Ring(n))}
	res, err := e.Run(200000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("estimate protocol did not finish")
	}
	for v := 0; v < n; v++ {
		got := float64(res.Outputs[v])
		if math.Abs(got-n)/n > 1.0/3 {
			t.Errorf("node %d estimated N = %v, want within 1/3 of %d", v, got, n)
		}
	}
}

func TestEstimateNUnderCountsWhenHorizonTooShort(t *testing.T) {
	// With a tiny round budget (gossip cannot finish), estimates must
	// come out low or zero — never a confident overshoot beyond the
	// concentration error. This is the one-sided behavior the Section 7
	// protocol depends on when D' < D.
	const n = 48
	ms := dynet.NewMachines(EstimateN{}, n, nil, 3, map[string]int64{
		ExtraD:      1, // wrong: true diameter is n-1
		ExtraK:      48,
		ExtraRounds: 30,
	})
	e := &dynet.Engine{Machines: ms, Adv: dynet.Static(graph.Line(n))}
	res, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if float64(res.Outputs[v]) > 1.5*n {
			t.Errorf("node %d overshot: estimate %d with incomplete gossip", v, res.Outputs[v])
		}
	}
}

func TestKForScales(t *testing.T) {
	if KFor(10) < 24 || KFor(1<<20) > 255 {
		t.Errorf("KFor out of range: %d, %d", KFor(10), KFor(1<<20))
	}
	if KFor(1000) >= KFor(1000000) {
		t.Error("KFor must grow with n until the cap")
	}
}

func BenchmarkSketchMerge(b *testing.B) {
	s := NewSketch(64)
	s.SetOwn(1, 1, rng.New(1))
	for i := 0; i < b.N; i++ {
		s.Merge(1, i%64, float32(i%1000)*0.001+0.0001)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := NewSketch(64)
	root := rng.New(1)
	for node := 0; node < 100; node++ {
		s.SetOwn(1, 1, root.Split(uint64(node)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(1)
	}
}

func TestMajorityThresholdMonotoneInNPrime(t *testing.T) {
	// Property: tau grows with N' and shrinks as c grows (larger margin
	// means fewer admissible N, hence a lower bar).
	f := func(npRaw uint16, cRaw uint8) bool {
		np := int(npRaw%10000) + 10
		c := 0.02 + float64(cRaw%30)/100
		tau1 := MajorityThreshold(np, c)
		tau2 := MajorityThreshold(np+np/2, c)
		return tau2 > tau1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimatorErrorShrinksWithK(t *testing.T) {
	// Property over many trials: the average absolute error at k=128 is
	// below the average at k=16 for the same population.
	const c = 100
	errAt := func(k int) float64 {
		var total float64
		for trial := 0; trial < 20; trial++ {
			root := rng.New(uint64(trial) + 7)
			s := NewSketch(k)
			for node := 0; node < c; node++ {
				s.SetOwn(1, 1, root.Split(uint64(node)))
			}
			d := s.Estimate(1) - c
			if d < 0 {
				d = -d
			}
			total += d
		}
		return total / 20
	}
	if errAt(128) >= errAt(16) {
		t.Errorf("error did not shrink: k=16 err %.2f, k=128 err %.2f", errAt(16), errAt(128))
	}
}

func TestSketchValuesSorted(t *testing.T) {
	s := NewSketch(4)
	for _, v := range []int64{9, 2, 7, 2, 0} {
		s.Merge(v, 0, 0.5)
	}
	vals := s.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			t.Fatalf("Values not sorted/deduped: %v", vals)
		}
	}
	if len(vals) != 4 {
		t.Fatalf("Values = %v, want 4 distinct", vals)
	}
}

func TestSketchValuesIsCopy(t *testing.T) {
	s := NewSketch(4)
	if vals := s.Values(); vals == nil || len(vals) != 0 {
		t.Fatalf("empty sketch Values = %#v, want an empty non-nil slice", vals)
	}
	for _, v := range []int64{5, 1, 3} {
		s.Merge(v, 1, 0.25)
	}
	vals := s.Values()
	vals[0], vals[2] = 99, -1
	if got := s.Values(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Values after caller mutation = %v, want [1 3 5]", got)
	}
}

// refPickRecord is PickRecord as a map scan: collect the values, sort
// them, then make the same two draws.
func refPickRecord(s *Sketch, src *rng.Source) (int64, int, float32, bool) {
	vals := make([]int64, 0, len(s.mins))
	for v := range s.mins {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if len(vals) == 0 {
		return 0, 0, 0, false
	}
	value := vals[src.Intn(len(vals))]
	copy := src.Intn(s.k)
	min := s.mins[value][copy]
	if math.IsInf(float64(min), 1) {
		return 0, 0, 0, false
	}
	return value, copy, min, true
}

// TestPickRecordMatchesMapScan pins PickRecord's draws to the map-scan
// reference on one fixed-seed sequence while values keep arriving in
// random order, some rows only partly filled.
func TestPickRecordMatchesMapScan(t *testing.T) {
	const k = 8
	s := NewSketch(k)
	feed := rng.New(3)
	got, want := rng.New(17), rng.New(17)
	for i := 0; i < 2000; i++ {
		if i%5 == 0 {
			s.Merge(int64(feed.Intn(300))-100, feed.Intn(k), float32(feed.Exp()))
		}
		if i%97 == 0 {
			s.SetOwn(int64(feed.Intn(1000)), uint64(i), feed)
		}
		gv, gc, gm, gok := s.PickRecord(got)
		wv, wc, wm, wok := refPickRecord(s, want)
		if gv != wv || gc != wc || gm != wm || gok != wok {
			t.Fatalf("pick %d = (%d, %d, %v, %v), want (%d, %d, %v, %v)", i, gv, gc, gm, gok, wv, wc, wm, wok)
		}
	}
}

func TestPickRecordAllocs(t *testing.T) {
	s := NewSketch(KFor(64))
	coins := rng.New(1)
	for v := int64(0); v < 32; v++ {
		s.SetOwn(v, uint64(v), coins)
	}
	src := rng.New(2)
	if avg := testing.AllocsPerRun(200, func() { s.PickRecord(src) }); avg != 0 {
		t.Errorf("PickRecord allocates %v per call, want 0", avg)
	}
}

// TestSetOwnAllocs pins SetOwn's per-copy coins to the stack: on a value
// the sketch already holds, SetOwn and SetOwnWeighted allocate nothing.
// Not parallel: AllocsPerRun reads process-wide counts.
func TestSetOwnAllocs(t *testing.T) {
	s := NewSketch(KFor(64))
	coins := rng.New(3)
	s.SetOwn(9, 0, coins)
	nonce := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		nonce++
		s.SetOwn(9, nonce, coins)
		s.SetOwnWeighted(9, 3, nonce, coins)
	}); avg != 0 {
		t.Errorf("SetOwn+SetOwnWeighted allocate %v per call, want 0", avg)
	}
}
