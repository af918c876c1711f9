package main

import (
	"fmt"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/harness"
)

// derive returns sub-seed i of root under tag by splitmix64, so every
// input of a run is a function of the --seed argument alone.
func derive(root uint64, tag string, i int) uint64 {
	x := root ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(tag) {
		x = mix(x ^ uint64(c))
	}
	return mix(x ^ uint64(i))
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// warmSeed derives the warm-up inputs of every workload's set-up. It is
// fixed, not taken from --seed, so set-up does the same warm-up work for
// every seed; only deriving the first pass depends on the seed.
const warmSeed = 1

// setupBefore is how many set-up repetitions a run makes before its
// first timed operation. The run uses the products of the last.
const setupBefore = 3

// setupReps runs a workload's set-up reps times and returns each
// repetition's seconds; the median of every repetition of a run is the
// reported setup_s. Set-up that keeps state (a server, a listener) tears
// down all but the last.
func setupReps(reps int, fn func(last bool) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(i == reps-1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// caseOp runs case i of a serial workload and returns the time of its
// timed section and the work that section did. It checks its outputs
// after the timed section and records failures on the report.
type caseOp func(i int) (time.Duration, float64)

// runSerial drives a single-threaded workload: it runs cases 0, 1, 2,
// ... until the budget is spent, at least minOps of them. Every case is
// fresh input, so a run samples many inputs rather than repeating a few.
// Only the timed sections count, so input generation and output checks
// are not work time. The work rate is taken per case, and the run
// reports the median case, so a burst of noise from outside the process
// moves one case, not the figure.
//
// After each case runSerial repeats the workload's set-up once, when
// setup is not nil. The machine's speed drifts over a run; set-up
// repeated across the whole run, like the cases, makes the median
// set-up time sample that drift the way the work rate does, instead of
// the few moments before the first case.
func runSerial(budget time.Duration, minOps int, rep *report, op caseOp, setup func(last bool) error) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		d, w := op(i)
		rep.attempted++
		rep.lat = append(rep.lat, ms(d))
		if d > 0 {
			rep.rates = append(rep.rates, w/d.Seconds())
		}
		if setup != nil {
			more, err := setupReps(1, setup)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			rep.setup = append(rep.setup, more...)
		}
	}
}

// certifiable reports whether harness.MeasureDynamicDiameter certifies
// the bounded-diameter family the sweeps build for seed at every size,
// within the horizon the sweeps grant it (6·targetD+60 rounds). The
// sweeps return an error for a seed that fails, so the input generators
// skip such seeds and count them; see certifiedSeed.
func certifiable(sizes []int, targetD int, seed uint64) bool {
	for _, n := range sizes {
		adv := adversaries.BoundedDiameter(n, targetD, n/2, seed+uint64(n))
		if _, err := harness.MeasureDynamicDiameter(adv, n, 6*targetD+60); err != nil {
			return false
		}
	}
	return true
}

// certifiedSeed returns the first seed of the sequence derived from
// (root, tag, i) that is certifiable at every size, and how many seeds
// it skipped.
func certifiedSeed(root uint64, tag string, i int, sizes []int, targetD int) (uint64, int) {
	base := derive(root, tag, i)
	for skipped := 0; ; skipped++ {
		s := derive(base, "certified", skipped)
		if certifiable(sizes, targetD, s) {
			return s, skipped
		}
	}
}
