// Package dynet is the determinism fixture of a coin row: math/rand and
// wall-clock reads are flagged on the `// want:determinism` lines, and
// nothing else is, not even an order-free map range.
package dynet

import (
	"math/rand" // want:determinism
	"time"
)

// Roll draws from the global math/rand stream: not re-simulable.
func Roll() int {
	return rand.Intn(6) // want:determinism
}

// Stamp reads the wall clock twice.
func Stamp() (time.Time, time.Duration) {
	now := time.Now()           // want:determinism
	return now, time.Since(now) // want:determinism
}

// Deadline uses time.Until, the third wall-clock reader.
func Deadline(t time.Time) time.Duration {
	return time.Until(t) // want:determinism
}

// Tick uses only duration arithmetic and constants: no clock is read.
func Tick(d time.Duration) time.Duration {
	return d + 5*time.Millisecond
}

// Shadow declares a local named time; selecting from it is not a clock
// read.
func Shadow() int {
	time := struct{ Now int }{Now: 3}
	return time.Now
}

// Degrees folds a map commutatively. Coin rows leave order-free
// iteration to maporder, which finds no leak here.
func Degrees(adj map[int][]int) int {
	total := 0
	for _, nbrs := range adj {
		total += len(nbrs)
	}
	return total
}
