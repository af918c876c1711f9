package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks, the same rule as numpy's
// default. It sorts a copy, so xs keeps its order. An empty sample
// yields NaN, which the caller must not report.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// selfTime is a layer's self time: its wall time minus the time spent
// inside the child calls it made, never below zero. Children are
// measured inside the parent's interval, so a negative difference can
// only come from clock granularity.
func selfTime(wall time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		wall -= c
	}
	if wall < 0 {
		return 0
	}
	return wall
}

// failRatio is failed operations over attempted operations; a run that
// attempted nothing failed by definition.
func failRatio(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ratio is a/b, or 0 when b is zero (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
