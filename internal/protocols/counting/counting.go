// Package counting implements the counting machinery behind Section 7:
// exponential-minima sketches in the style of Mosk-Aoyama and Shah [18],
// used to estimate how many nodes hold a given value under O(log N)-bit
// messages, and the conservative one-sided majority test built on them.
//
// Every participating node draws, per sketch copy c in [0, k), an
// exponential variate keyed to its held value; gossip propagates, per
// (value, copy), the minimum variate seen. If W_c is the true minimum over
// the C holders of a value, then sum_c W_c ~ Gamma(k, 1/C) and
// (k-1)/sum_c W_c is a concentrated estimator of C (relative error
// ~1/sqrt(k)).
//
// Two properties matter for the paper's protocol:
//
//   - One-sided error: a node's observed per-copy minimum only ever
//     over-estimates the true minimum (gossip may not have delivered the
//     smallest variate yet), so the estimate only ever under-counts —
//     unless the k-copy concentration itself fails, which happens with
//     probability exponentially small in k. Incomplete propagation
//     (D' < D) and bandwidth dilution by other values both push the
//     estimate down, never up.
//   - The majority threshold: with an estimate N' satisfying
//     |N'-N|/N <= 1/3-c we have N <= N'/(2/3+c), so claiming a majority
//     only when the (under-counting) estimate reaches
//     tau = (1+eps)·N'/(2(2/3+c)) is sound for any concentration error
//     below eps; and when all N nodes hold the value and propagation is
//     complete, N >= N'/(4/3-c) reaches tau because
//     (1-eps)/(4/3-c) > (1+eps)/(4/3+2c) for eps < c/4 — the constant c
//     is precisely the completeness margin. See MajorityThreshold.
package counting

import (
	"math"
	"slices"

	"dyndiam/internal/bitio"
	"dyndiam/internal/rng"
)

// KFor returns the default number of sketch copies for an n-node network:
// Θ(log n) with a constant giving ~15% relative error, the accuracy the
// Section 7 thresholds are tuned for.
func KFor(n int) int {
	k := 6 * bitio.WidthFor(n+1)
	if k < 24 {
		k = 24
	}
	if k > 255 {
		k = 255 // the wire format encodes the copy index in 8 bits
	}
	return k
}

// Sketch is one node's gossip state for one counting invocation. It tracks,
// per value seen, the per-copy minima. The zero value is not usable; call
// NewSketch.
type Sketch struct {
	k    int
	mins map[int64][]float32
	vals []int64 // the keys of mins, sorted ascending
}

// NewSketch returns an empty sketch with k copies.
func NewSketch(k int) *Sketch {
	if k < 2 {
		//lint:allow panicfree the copy count is a protocol parameter fixed at construction, not runtime input
		panic("counting: need at least 2 copies")
	}
	return &Sketch{k: k, mins: make(map[int64][]float32)}
}

// K returns the number of copies.
func (s *Sketch) K() int { return s.k }

// row returns (creating if needed) the minima row for a value. A new value
// is inserted into vals at its sorted position.
func (s *Sketch) row(value int64) []float32 {
	row, ok := s.mins[value]
	if !ok {
		row = make([]float32, s.k)
		for i := range row {
			row[i] = float32(math.Inf(1))
		}
		s.mins[value] = row
		i, _ := slices.BinarySearch(s.vals, value)
		s.vals = slices.Insert(s.vals, i, value)
	}
	return row
}

// SetOwn registers this node's own contribution for the value it holds:
// one exponential draw per copy, derived deterministically from coins with
// the given invocation nonce. Draws are quantized to float32 at draw time
// so that minima are exact under gossip.
func (s *Sketch) SetOwn(value int64, nonce uint64, coins *rng.Source) {
	row := s.row(value)
	for c := 0; c < s.k; c++ {
		draw := float32(coins.Split(nonce, uint64(c)).Exp())
		if draw < row[c] {
			row[c] = draw
		}
	}
}

// Merge folds one received (value, copy, min) record into the sketch.
func (s *Sketch) Merge(value int64, copy int, min float32) {
	if copy < 0 || copy >= s.k {
		return // malformed record: drop
	}
	row := s.row(value)
	if min < row[copy] {
		row[copy] = min
	}
}

// Values returns the values present in the sketch, sorted. The slice is a
// copy the caller may modify.
func (s *Sketch) Values() []int64 {
	return append(make([]int64, 0, len(s.vals)), s.vals...)
}

// Estimate returns the count estimate (k-1)/sum of minima for the value.
// Missing copies (no information) make the estimate 0 — the conservative
// direction.
func (s *Sketch) Estimate(value int64) float64 {
	row, ok := s.mins[value]
	if !ok {
		return 0
	}
	var sum float64
	for _, m := range row {
		if math.IsInf(float64(m), 1) {
			return 0
		}
		sum += float64(m)
	}
	if sum <= 0 {
		return 0
	}
	return float64(s.k-1) / sum
}

// EncodeRecord writes one gossip record. Layout: value (uvarint),
// copy (8 bits), min (float32 bits). Total well under one CONGEST budget.
func EncodeRecord(w *bitio.Writer, value int64, copy int, min float32) {
	w.WriteUvarint(uint64(value))
	w.WriteUint(uint64(copy), 8)
	w.WriteUint(uint64(math.Float32bits(min)), 32)
}

// DecodeRecord reads one gossip record written by EncodeRecord.
func DecodeRecord(rd *bitio.Reader) (value int64, copy int, min float32, err error) {
	v, err := rd.ReadUvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	c, err := rd.ReadUint(8)
	if err != nil {
		return 0, 0, 0, err
	}
	bits, err := rd.ReadUint(32)
	if err != nil {
		return 0, 0, 0, err
	}
	return int64(v), int(c), math.Float32frombits(uint32(bits)), nil
}

// PickRecord selects a record to gossip this round: a uniformly random
// (value, copy) cell of the sketch. With a single value in the system all
// bandwidth serves it (the completeness case of the majority test); with
// many values bandwidth dilutes, which only under-counts. It does not
// allocate.
//
//lint:hotpath
func (s *Sketch) PickRecord(src *rng.Source) (value int64, copy int, min float32, ok bool) {
	if len(s.vals) == 0 {
		return 0, 0, 0, false
	}
	value = s.vals[src.Intn(len(s.vals))]
	copy = src.Intn(s.k)
	min = s.mins[value][copy]
	if math.IsInf(float64(min), 1) {
		return 0, 0, 0, false
	}
	return value, copy, min, true
}

// MajorityThreshold returns tau: claim "value is held by a strict majority
// of the N nodes" only when the sketch estimate reaches tau, given the
// estimate N' with |N'-N|/N <= 1/3-c.
//
// Soundness: N' >= N(2/3+c), so N <= nMax := floor(N'/(2/3+c)). A claim at
// estimate >= tau = (1+eps)(nMax+1)/2 with an estimate that over-counts by
// at most a (1+eps) factor implies a true count >= (nMax+1)/2 > N/2 — a
// strict majority. Completeness: when all N nodes hold the value and
// propagation completed, the estimate is >= (1-eps)N, and
// (1-eps)N >= (1+eps)(nMax+1)/2 holds with margin Θ(cN) for eps = c/4 —
// the constant c in the paper's N'-accuracy premise is exactly this
// completeness margin, and at c = 0 the inequality fails, matching the
// Theorem 7 lower bound at accuracy exactly 1/3.
func MajorityThreshold(nPrime int, c float64) float64 {
	if c <= 0 || c > 1.0/3 {
		//lint:allow panicfree the margin is an experiment parameter; values outside (0, 1/3] contradict Theorem 8's premise
		panic("counting: majority margin c must be in (0, 1/3]")
	}
	eps := c / 4
	nMax := math.Floor(float64(nPrime) / (2.0/3 + c))
	return (1 + eps) * (nMax + 1) / 2
}

// MajorityCompletenessBound returns the estimate value that a complete,
// unanimous count must reach for the threshold test to fire, i.e.
// (1-eps)·N'/(4/3-c); it exceeds MajorityThreshold for every c > 0, which
// is the completeness margin the tests verify.
func MajorityCompletenessBound(nPrime int, c float64) float64 {
	eps := c / 4
	return (1 - eps) * float64(nPrime) / (4.0/3 - c)
}
