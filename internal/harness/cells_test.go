package harness

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dyndiam/internal/obs"
)

// TestSweepWorkersFor pins the one worker rule: Workers < 1 means
// GOMAXPROCS, and the result is capped at the cell count.
func TestSweepWorkersFor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, cells, want int }{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
		{0, 0, 1},
		{1, 8, 1},
		{7, 3, 3},
		{7, 100, 7},
	} {
		if got := (Sweep{Workers: c.workers}).WorkersFor(c.cells); got != c.want {
			t.Errorf("Sweep{Workers: %d}.WorkersFor(%d) = %d, want %d", c.workers, c.cells, got, c.want)
		}
	}
}

// TestSweepWorkersOneSequential: Workers 1 runs cells on the calling
// goroutine in ascending order and stops at the first error.
func TestSweepWorkersOneSequential(t *testing.T) {
	var order []int
	stop := errors.New("stop")
	err := Sweep{Workers: 1}.ForEachCell(6, func(i int, _ *obs.Registry) error {
		order = append(order, i)
		if i == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("cells ran in order %v, want %v", order, want)
	}
}

// TestZeroSweepRunsCellsConcurrently: the zero Sweep runs two cells at
// once when there are two cores. Each cell waits for the other to start,
// which a sequential sweep never lets happen.
func TestZeroSweepRunsCellsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	var started sync.WaitGroup
	started.Add(2)
	err := Sweep{}.ForEachCell(2, func(i int, _ *obs.Registry) error {
		started.Done()
		done := make(chan struct{})
		go func() { started.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other cell never started")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunPoolLargestFirst: cells are handed out from the highest index
// down, so a sweep's largest size starts first.
func TestRunPoolLargestFirst(t *testing.T) {
	var order []int
	runPool(1, 5, func(i int) { order = append(order, i) })
	if want := []int{4, 3, 2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("runPool handed out %v, want %v", order, want)
	}
}
