// Package bitkernel provides the word-packed execution kernels behind the
// huge-N fast paths: a dense bitset (Bits), an incrementally maintained
// causal closure (Closure, DiameterTracker), and a flood engine
// (FloodEngine) that runs CFLOOD-style knowledge-set protocols as word-ORs
// over adjacency instead of per-message inboxes.
//
// The package sits below internal/dynet: it depends only on internal/graph
// and the standard library, knows nothing about machines, messages, or
// adversaries, and exposes deterministic, allocation-free round kernels
// that the engine and harness layers wrap. All kernels maintain one shared
// invariant: a Bits value sized for n keeps every bit at position >= n
// zero, so population counts are plain word sums and equality is plain
// word comparison, with the masked tail handled once at construction
// (Fill, TailMask) instead of on every operation.
package bitkernel

import "math/bits"

// Bits is a fixed-size set of integers in [0, n) packed 64 per word.
// Operations that combine two Bits require equal lengths. Methods taking
// an explicit n trust the caller to pass the same n the value was sized
// for; bits at positions >= n must stay zero (the tail invariant).
type Bits []uint64

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) / 64 }

// New returns a zeroed Bits sized for n elements.
func New(n int) Bits { return make(Bits, WordsFor(n)) }

// TailMask returns the mask of valid bits in the last word of a Bits
// sized for n (all ones when n is a multiple of 64).
func TailMask(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return ^uint64(0) >> (64 - r)
	}
	return ^uint64(0)
}

// Set sets bit i.
func (b Bits) Set(i int) { b[uint(i)>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b Bits) Test(i int) bool { return b[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// Zero clears every bit.
func (b Bits) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Fill sets bits 0..n-1 and clears the tail, establishing the invariant.
func (b Bits) Fill(n int) {
	if len(b) == 0 {
		return
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	b[len(b)-1] = TailMask(n)
}

// CopyFrom makes b a copy of o (equal lengths).
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// Or sets b |= o word-wise. The loop is manually unrolled four wide so
// the common closure/flood row widths stream through cache without a
// per-word bounds-check-and-branch cycle.
func (b Bits) Or(o Bits) {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		b[i] |= o[i]
		b[i+1] |= o[i+1]
		b[i+2] |= o[i+2]
		b[i+3] |= o[i+3]
	}
	for ; i < len(b); i++ {
		b[i] |= o[i]
	}
}

// OrOf sets b = x | y word-wise (equal lengths): a copy and an Or in one
// pass over b.
func (b Bits) OrOf(x, y Bits) {
	x, y = x[:len(b)], y[:len(b)]
	i := 0
	for ; i+4 <= len(b); i += 4 {
		b[i] = x[i] | y[i]
		b[i+1] = x[i+1] | y[i+1]
		b[i+2] = x[i+2] | y[i+2]
		b[i+3] = x[i+3] | y[i+3]
	}
	for ; i < len(b); i++ {
		b[i] = x[i] | y[i]
	}
}

// And sets b &= o word-wise.
func (b Bits) And(o Bits) {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		b[i] &= o[i]
		b[i+1] &= o[i+1]
		b[i+2] &= o[i+2]
		b[i+3] &= o[i+3]
	}
	for ; i < len(b); i++ {
		b[i] &= o[i]
	}
}

// AndNot sets b &^= o word-wise.
func (b Bits) AndNot(o Bits) {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		b[i] &^= o[i]
		b[i+1] &^= o[i+1]
		b[i+2] &^= o[i+2]
		b[i+3] &^= o[i+3]
	}
	for ; i < len(b); i++ {
		b[i] &^= o[i]
	}
}

// Popcount returns the number of set bits. Under the tail invariant this
// is a plain word sum with no end-of-range masking.
func (b Bits) Popcount() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether b and o hold the same bits (equal lengths).
func (b Bits) Equal(o Bits) bool {
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// FullUpTo reports whether every bit in [0, n) is set.
func (b Bits) FullUpTo(n int) bool {
	if n == 0 {
		return true
	}
	last := len(b) - 1
	for i := 0; i < last; i++ {
		if b[i] != ^uint64(0) {
			return false
		}
	}
	return b[last] == TailMask(n)
}

// NextSet returns the smallest j >= i with bit j set, or n if none.
func (b Bits) NextSet(i, n int) int {
	if i >= n {
		return n
	}
	w := uint(i) >> 6
	word := b[w] >> (uint(i) & 63)
	if word != 0 {
		j := i + bits.TrailingZeros64(word)
		if j < n {
			return j
		}
		return n
	}
	for w++; int(w) < len(b); w++ {
		if b[w] != 0 {
			j := int(w)<<6 + bits.TrailingZeros64(b[w])
			if j < n {
				return j
			}
			return n
		}
	}
	return n
}

// NextZero returns the smallest j >= i with bit j clear, or n if none.
func (b Bits) NextZero(i, n int) int {
	if i >= n {
		return n
	}
	w := uint(i) >> 6
	word := ^b[w] >> (uint(i) & 63)
	if word != 0 {
		j := i + bits.TrailingZeros64(word)
		if j < n {
			return j
		}
		return n
	}
	for w++; int(w) < len(b); w++ {
		if b[w] != ^uint64(0) {
			j := int(w)<<6 + bits.TrailingZeros64(^b[w])
			if j < n {
				return j
			}
			return n
		}
	}
	return n
}

// Matrix is an n-row bitset matrix stored in one contiguous arena, the
// row-major layout the closure kernel walks: Row(v) for consecutive v
// touches consecutive cache lines.
type Matrix struct {
	rows  int
	w     int // words per row
	words []uint64
}

// NewMatrix returns a zeroed rows x cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	w := WordsFor(cols)
	return &Matrix{rows: rows, w: w, words: make([]uint64, rows*w)}
}

// Row returns row i as a Bits view aliasing the arena.
func (m *Matrix) Row(i int) Bits { return Bits(m.words[i*m.w : (i+1)*m.w]) }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }
