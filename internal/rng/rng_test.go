package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct seeds produced %d equal draws in 100", same)
	}
}

func TestSplitIsPure(t *testing.T) {
	t.Parallel()
	root := New(7)
	before := *root
	c1 := root.Split(3, 9)
	if *root != before {
		t.Fatal("Split mutated the parent stream")
	}
	c2 := root.Split(3, 9)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("identical Split labels gave different streams at draw %d", i)
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	t.Parallel()
	root := New(7)
	c1 := root.Split(1, 2)
	c2 := root.Split(2, 1)
	c3 := root.Split(1)
	equal12, equal13 := 0, 0
	for i := 0; i < 200; i++ {
		v1, v2, v3 := c1.Uint64(), c2.Uint64(), c3.Uint64()
		if v1 == v2 {
			equal12++
		}
		if v1 == v3 {
			equal13++
		}
	}
	if equal12 > 0 || equal13 > 0 {
		t.Errorf("split streams collide: (1,2)vs(2,1)=%d, (1,2)vs(1)=%d", equal12, equal13)
	}
}

func TestAtMatchesSplit(t *testing.T) {
	t.Parallel()
	root := New(99)
	a := root.At(5, 17)
	b := root.Split(6, 18)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("At(5,17) differs from Split(6,18)")
		}
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, n uint8) bool {
		nn := int(n%100) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformish(t *testing.T) {
	t.Parallel()
	s := New(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := draws / n
	for v, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("Intn(%d): value %d drawn %d times, want about %d", n, v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", f)
		}
	}
}

func TestExpMoments(t *testing.T) {
	t.Parallel()
	s := New(77)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := s.Exp()
		if v <= 0 {
			t.Fatalf("Exp returned non-positive %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want about 1", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Exp variance = %v, want about 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, n uint8) bool {
		nn := int(n % 64)
		p := New(seed).Perm(nn)
		if len(p) != nn {
			return false
		}
		seen := make([]bool, nn)
		for _, v := range p {
			if v < 0 || v >= nn || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbExtremes(t *testing.T) {
	t.Parallel()
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Prob(0) {
			t.Fatal("Prob(0) returned true")
		}
		if !s.Prob(1.0000001) {
			t.Fatal("Prob(>1) returned false")
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// refIntn is Intn as it was before the one-division fast path: it computes
// the rejection limit for every draw. Intn must return the same value and
// leave the same stream state for every stream.
func refIntn(s *Source, n int) int {
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// unmix64 inverts mix64.
func unmix64(z uint64) uint64 {
	z = unxorShift(z, 31)
	z *= mulInverse(mixK1)
	z = unxorShift(z, 27)
	z *= mulInverse(mixK0)
	return unxorShift(z, 30)
}

// unxorShift inverts z ^= z >> s.
func unxorShift(y uint64, s uint) uint64 {
	x := y
	for shift := s; shift < 64; shift += s {
		x ^= y >> shift
	}
	return x
}

// mulInverse returns the inverse of odd k modulo 2^64 (Newton's iteration
// doubles the correct low bits each step).
func mulInverse(k uint64) uint64 {
	inv := k
	for i := 0; i < 6; i++ {
		inv *= 2 - k*inv
	}
	return inv
}

// firstDraw returns the stream whose next Uint64 is v.
func firstDraw(v uint64) Source { return Source{state: unmix64(v) - gamma} }

func TestUnmix64(t *testing.T) {
	t.Parallel()
	for _, z := range []uint64{0, 1, gamma, math.MaxUint64, 1 << 63} {
		if got := mix64(unmix64(z)); got != z {
			t.Errorf("mix64(unmix64(%#x)) = %#x", z, got)
		}
	}
	for _, v := range []uint64{0, 7, math.MaxUint64} {
		s := firstDraw(v)
		if got := s.Uint64(); got != v {
			t.Errorf("firstDraw(%#x) draws %#x", v, got)
		}
	}
}

// TestIntnMatchesReference starts Intn on streams whose first draw sits
// exactly at the fast path's edge (MaxUint64-n, MaxUint64-n+1), at the
// rejection limit's edge (limit-1, limit) and at MaxUint64, where a
// rejected draw makes both versions draw again.
func TestIntnMatchesReference(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 1<<31 - 1, 1<<32 + 1, 1<<62 + 1, math.MaxInt} {
		max := uint64(n)
		limit := math.MaxUint64 - math.MaxUint64%max
		for _, v := range []uint64{math.MaxUint64 - max, math.MaxUint64 - max + 1, limit - 1, limit, math.MaxUint64} {
			got, want := firstDraw(v), firstDraw(v)
			if g, w := got.Intn(n), refIntn(&want, n); g != w || got != want {
				t.Errorf("n=%d first draw %#x: Intn = %d (state %#x), reference %d (state %#x)",
					n, v, g, got.state, w, want.state)
			}
		}
	}
}

// FuzzIntnEquivalence runs Intn and the reference side by side for a few
// draws, once from the fuzzed stream and once from a stream whose first
// draw lies in the top n+1 values, where the two paths differ.
func FuzzIntnEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(3), uint64(5))
	f.Add(uint64(1), uint64(1<<32+1))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxInt))
	f.Fuzz(func(t *testing.T, state, n uint64) {
		nn := int(n>>1) + 1
		if nn <= 0 {
			nn = math.MaxInt
		}
		for _, start := range []Source{{state: state}, firstDraw(math.MaxUint64 - state%(uint64(nn)+1))} {
			got, want := start, start
			for i := 0; i < 4; i++ {
				if g, w := got.Intn(nn), refIntn(&want, nn); g != w || got != want {
					t.Fatalf("n=%d from state %#x, draw %d: Intn = %d, reference %d", nn, start.state, i, g, w)
				}
			}
		}
	})
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Intn(i&127 + 1)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkSplitAt(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.At(i&1023, i>>10)
	}
}
