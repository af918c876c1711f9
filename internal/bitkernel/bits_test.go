package bitkernel

import (
	"testing"

	"dyndiam/internal/rng"
)

// refBits is the obvious boolean-slice model the packed operations are
// checked against.
type refBits []bool

func (r refBits) popcount() int {
	c := 0
	for _, b := range r {
		if b {
			c++
		}
	}
	return c
}

func randomPair(n int, src *rng.Source) (Bits, refBits) {
	b := New(n)
	r := make(refBits, n)
	for i := 0; i < n; i++ {
		if src.Bool() {
			b.Set(i)
			r[i] = true
		}
	}
	return b, r
}

func checkAgainstRef(t *testing.T, n int, b Bits, r refBits) {
	t.Helper()
	for i := 0; i < n; i++ {
		if b.Test(i) != r[i] {
			t.Fatalf("n=%d: bit %d = %v, want %v", n, i, b.Test(i), r[i])
		}
	}
	if got, want := b.Popcount(), r.popcount(); got != want {
		t.Fatalf("n=%d: popcount %d, want %d", n, got, want)
	}
	// The tail invariant: no stray bits beyond n.
	if len(b) > 0 {
		if b[len(b)-1]&^TailMask(n) != 0 {
			t.Fatalf("n=%d: tail bits set beyond n: %x", n, b[len(b)-1])
		}
	}
}

func TestBitsOpsMatchReference(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200, 1000} {
		for trial := 0; trial < 20; trial++ {
			a, ra := randomPair(n, src)
			b, rb := randomPair(n, src)

			or := New(n)
			or.CopyFrom(a)
			or.Or(b)
			ror := make(refBits, n)
			for i := range ror {
				ror[i] = ra[i] || rb[i]
			}
			checkAgainstRef(t, n, or, ror)

			and := New(n)
			and.CopyFrom(a)
			and.And(b)
			rand := make(refBits, n)
			for i := range rand {
				rand[i] = ra[i] && rb[i]
			}
			checkAgainstRef(t, n, and, rand)

			andNot := New(n)
			andNot.CopyFrom(a)
			andNot.AndNot(b)
			rAndNot := make(refBits, n)
			for i := range rAndNot {
				rAndNot[i] = ra[i] && !rb[i]
			}
			checkAgainstRef(t, n, andNot, rAndNot)

			if got, want := a.Equal(b), func() bool {
				for i := range ra {
					if ra[i] != rb[i] {
						return false
					}
				}
				return true
			}(); got != want {
				t.Fatalf("n=%d: Equal=%v, want %v", n, got, want)
			}
		}
	}
}

// TestBitsOrOfMatchesCopyThenOr: the one-pass OrOf writes the same bits
// as a copy followed by an Or, and overwrites whatever the target held.
func TestBitsOrOfMatchesCopyThenOr(t *testing.T) {
	src := rng.New(9)
	for _, n := range []int{1, 3, 64, 65, 191, 256, 1000} {
		a, _ := randomPair(n, src)
		b, _ := randomPair(n, src)
		want := New(n)
		want.CopyFrom(a)
		want.Or(b)
		got, _ := randomPair(n, src)
		got.OrOf(a, b)
		if !got.Equal(want) {
			t.Fatalf("n=%d: OrOf = %x, want %x", n, got, want)
		}
	}
}

func TestBitsFillAndFullUpTo(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 129, 1000} {
		b := New(n)
		if b.FullUpTo(n) {
			t.Fatalf("n=%d: zeroed Bits reported full", n)
		}
		b.Fill(n)
		if !b.FullUpTo(n) {
			t.Fatalf("n=%d: filled Bits not full", n)
		}
		if got := b.Popcount(); got != n {
			t.Fatalf("n=%d: filled popcount %d", n, got)
		}
		b.Clear(n - 1)
		if b.FullUpTo(n) {
			t.Fatalf("n=%d: full after clearing last bit", n)
		}
		b.Set(n - 1)
		b.Clear(0)
		if b.FullUpTo(n) {
			t.Fatalf("n=%d: full after clearing first bit", n)
		}
	}
}

func TestBitsNextSetNextZero(t *testing.T) {
	src := rng.New(11)
	for _, n := range []int{1, 64, 65, 130, 300} {
		for trial := 0; trial < 10; trial++ {
			b, r := randomPair(n, src)
			for i := 0; i <= n; i++ {
				wantSet, wantZero := n, n
				for j := i; j < n; j++ {
					if r[j] && wantSet == n {
						wantSet = j
					}
					if !r[j] && wantZero == n {
						wantZero = j
					}
				}
				if got := b.NextSet(i, n); got != wantSet {
					t.Fatalf("n=%d i=%d: NextSet=%d, want %d", n, i, got, wantSet)
				}
				if got := b.NextZero(i, n); got != wantZero {
					t.Fatalf("n=%d i=%d: NextZero=%d, want %d", n, i, got, wantZero)
				}
			}
		}
	}
}

func TestMatrixRowsAreIndependent(t *testing.T) {
	m := NewMatrix(5, 70)
	m.Row(2).Fill(70)
	for i := 0; i < 5; i++ {
		want := 0
		if i == 2 {
			want = 70
		}
		if got := m.Row(i).Popcount(); got != want {
			t.Fatalf("row %d popcount %d, want %d", i, got, want)
		}
	}
}
