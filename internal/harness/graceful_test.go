package harness

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestGracefulCellsAllOutcomes is the acceptance test for graceful
// degradation: a sweep containing healthy, erroring, panicking, and
// timing-out cells still runs to completion and records each outcome.
func TestGracefulCellsAllOutcomes(t *testing.T) {
	wantErr := errors.New("cell error")
	results, outcomes := gracefulCells(Sweep{Workers: 1}, 4, 30*time.Millisecond, func(i int) (int, error) {
		switch i {
		case 1:
			return 0, wantErr
		case 2:
			panic("cell panic")
		case 3:
			time.Sleep(2 * time.Second)
			return 3, nil
		}
		return 10 * i, nil
	})
	want := []struct {
		outcome CellOutcome
		name    string
	}{
		{CellOK, "ok"}, {CellFailed, "failed"}, {CellPanicked, "panicked"}, {CellTimedOut, "timed_out"},
	}
	for i, w := range want {
		if outcomes[i].Cell != i || outcomes[i].Outcome != w.outcome {
			t.Errorf("cell %d: outcome %v, want %v", i, outcomes[i].Outcome, w.outcome)
		}
		if got := outcomes[i].Outcome.String(); got != w.name {
			t.Errorf("cell %d: outcome name %q, want %q", i, got, w.name)
		}
		if (outcomes[i].Err == nil) != (w.outcome == CellOK) {
			t.Errorf("cell %d: Err = %v for outcome %v", i, outcomes[i].Err, w.outcome)
		}
	}
	if results[0] != 0 || results[1] != 0 || results[2] != 0 || results[3] != 0 {
		t.Errorf("non-OK cells must leave zero results: %v", results)
	}

	var timeout ErrCellTimeout
	if !errors.As(outcomes[3].Err, &timeout) || timeout.Cell != 3 || timeout.Budget != 30*time.Millisecond {
		t.Errorf("timeout error = %#v", outcomes[3].Err)
	}
	var pan ErrCellPanic
	if !errors.As(outcomes[2].Err, &pan) || pan.Cell != 2 || pan.Value != "cell panic" {
		t.Errorf("panic error = %#v", outcomes[2].Err)
	}
	if !errors.Is(outcomes[1].Err, wantErr) {
		t.Errorf("failed cell error = %v", outcomes[1].Err)
	}
}

// TestGracefulCellsParallelEqualsSequential: index-derived cells give the
// same results and outcomes at every worker count.
func TestGracefulCellsParallelEqualsSequential(t *testing.T) {
	run := func(workers int) ([]int, []CellResult) {
		return gracefulCells(Sweep{Workers: workers}, 40, 0, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, errors.New("unlucky")
			}
			return i * i, nil
		})
	}
	seqR, seqO := run(1)
	parR, parO := run(8)
	if !reflect.DeepEqual(seqR, parR) {
		t.Error("results differ across worker counts")
	}
	// Outcome errors are distinct values; compare the classification.
	for i := range seqO {
		if seqO[i].Outcome != parO[i].Outcome || seqO[i].Cell != parO[i].Cell {
			t.Errorf("cell %d: outcome differs across worker counts", i)
		}
	}
}

// TestGracefulCellsUnlimitedBudget: budget <= 0 never times out.
func TestGracefulCellsUnlimitedBudget(t *testing.T) {
	_, outcomes := gracefulCells(Sweep{}, 3, 0, func(i int) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	})
	for i, oc := range outcomes {
		if oc.Outcome != CellOK {
			t.Errorf("cell %d: %v", i, oc)
		}
	}
}

func TestNonTerminationError(t *testing.T) {
	err := NonTermination{Name: "leader reliability", Cell: 4, Budget: 100}
	want := "harness: leader reliability cell 4 did not terminate within 100 rounds"
	if err.Error() != want {
		t.Errorf("got %q, want %q", err.Error(), want)
	}
}

// TestSweepBudget: the zero Sweep (and any Budget < 1) resolves to
// DefaultRoundBudget, a positive Budget is used as given, and a run that
// exhausts it reports that budget in its NonTermination.
func TestSweepBudget(t *testing.T) {
	for _, c := range []struct{ budget, want int }{
		{0, DefaultRoundBudget},
		{-5, DefaultRoundBudget},
		{1234, 1234},
	} {
		if got := (Sweep{Budget: c.budget}).budget(); got != c.want {
			t.Errorf("Sweep{Budget: %d} resolves to %d, want %d", c.budget, got, c.want)
		}
	}
	_, err := (Sweep{Budget: 3}).LeaderReliability(16, 4, 2, nil)
	var nt NonTermination
	if !errors.As(err, &nt) || nt.Budget != 3 || nt.Cell != 0 {
		t.Fatalf("LeaderReliability under Budget 3: err = %v, want NonTermination of cell 0 at budget 3", err)
	}
}
