package harness

import (
	"fmt"
	"time"
)

// The graceful cell runner is the degradation-sweep counterpart of
// Sweep.ForEachCell: where the clean sweeps abort on the first error (an error
// there means the harness itself is broken), fault sweeps expect cells to
// misbehave — a crashed protocol may panic, a heavily faulted run may
// exceed any reasonable wall-clock budget — and one bad cell must not cost
// the rest of the table. gracefulCells therefore isolates every cell in
// its own goroutine, converts panics and budget overruns into structured
// per-cell outcomes, and always runs the grid to completion.

// CellOutcome classifies how one sweep cell finished.
type CellOutcome int

const (
	// CellOK: the cell returned a value.
	CellOK CellOutcome = iota
	// CellFailed: the cell returned an error (e.g. NonTermination).
	CellFailed
	// CellPanicked: the cell panicked; the panic was recovered and
	// recorded as an ErrCellPanic.
	CellPanicked
	// CellTimedOut: the cell exceeded its wall-clock budget and was
	// abandoned; its result (if it ever finishes) is discarded.
	CellTimedOut
)

// String returns the stable wire name of the outcome ("ok", "failed",
// "panicked", "timed_out").
func (o CellOutcome) String() string {
	switch o {
	case CellOK:
		return "ok"
	case CellFailed:
		return "failed"
	case CellPanicked:
		return "panicked"
	case CellTimedOut:
		return "timed_out"
	}
	return "unknown"
}

// ErrCellTimeout reports that a cell exceeded its wall-clock budget.
type ErrCellTimeout struct {
	Cell   int
	Budget time.Duration
}

func (e ErrCellTimeout) Error() string {
	return fmt.Sprintf("harness: cell %d exceeded its %v wall-clock budget", e.Cell, e.Budget)
}

// ErrCellPanic reports a recovered panic from a cell.
type ErrCellPanic struct {
	Cell  int
	Value interface{} // the recovered panic value
}

func (e ErrCellPanic) Error() string {
	return fmt.Sprintf("harness: cell %d panicked: %v", e.Cell, e.Value)
}

// CellResult records one cell's outcome in a graceful sweep. Err is nil
// exactly when Outcome is CellOK.
type CellResult struct {
	Cell    int
	Outcome CellOutcome
	Err     error
}

// cellReply carries a guarded cell's result over its buffered channel.
type cellReply[T any] struct {
	val      T
	err      error
	panicked bool
}

// runCellGuarded starts fn(i) in its own goroutine and returns the channel
// its single reply will arrive on. The channel is buffered so an abandoned
// (timed-out) cell's late reply parks in the buffer and is collected with
// the goroutine — it never blocks and never races with the sweep, which
// has already recorded the timeout and moved on.
func runCellGuarded[T any](i int, fn func(i int) (T, error)) <-chan cellReply[T] {
	ch := make(chan cellReply[T], 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- cellReply[T]{err: ErrCellPanic{Cell: i, Value: v}, panicked: true}
			}
		}()
		val, err := fn(i)
		ch <- cellReply[T]{val: val, err: err}
	}()
	return ch
}

// gracefulCells runs fn(i) for every cell index in [0, cells) across
// s.Workers goroutines, giving each cell at most budget of wall-clock
// time (budget <= 0 means unlimited). It never fails: every cell gets a
// CellResult, and results[i] holds fn's value exactly when outcomes[i] is
// CellOK (the zero T otherwise). Cells must derive all randomness from
// their index, as in Sweep.ForEachCell, so the values are
// schedule-independent; only the wall-clock timeout outcome can vary
// between machines, which is why deterministic artifacts (tables,
// checkpoints) record timeouts as failures rather than silently
// re-deriving their cells. (Go methods cannot be generic, so the Sweep
// is a parameter here.)
func gracefulCells[T any](s Sweep, cells int, budget time.Duration, fn func(i int) (T, error)) (results []T, outcomes []CellResult) {
	results = make([]T, cells)
	outcomes = make([]CellResult, cells)
	runPool(s.workers(cells), cells, func(i int) {
		ch := runCellGuarded(i, fn)
		var rep cellReply[T]
		if budget > 0 {
			t := time.NewTimer(budget)
			select {
			case rep = <-ch:
				t.Stop()
			case <-t.C:
				outcomes[i] = CellResult{Cell: i, Outcome: CellTimedOut, Err: ErrCellTimeout{Cell: i, Budget: budget}}
				return
			}
		} else {
			rep = <-ch
		}
		switch {
		case rep.panicked:
			outcomes[i] = CellResult{Cell: i, Outcome: CellPanicked, Err: rep.err}
		case rep.err != nil:
			outcomes[i] = CellResult{Cell: i, Outcome: CellFailed, Err: rep.err}
		default:
			results[i] = rep.val
			outcomes[i] = CellResult{Cell: i, Outcome: CellOK}
		}
	})
	return results, outcomes
}
