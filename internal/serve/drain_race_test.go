package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dyndiam/internal/harness"
)

// TestDrainSubmitRaceNoLostJobs pins the drain-vs-submit contract under
// the race detector: with Drain() racing 32 concurrent Submits, every
// submission either is refused with ErrDraining or becomes a job that
// runs to completion — an accepted entry can never be stranded in the
// queue when the workers exit. The stub executor sleeps briefly so the
// drain window overlaps real execution, and the whole dance repeats to
// cover both orderings of the race.
func TestDrainSubmitRaceNoLostJobs(t *testing.T) {
	t.Parallel()
	const submitters = 32
	for iter := 0; iter < 6; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			exec := func(harness.Sweep, Kind, Params) ([]byte, error) {
				time.Sleep(time.Millisecond)
				return []byte(`{"ok":true}` + "\n"), nil
			}
			s := New(Config{Workers: 2, QueueCap: submitters * 2, Exec: exec})
			defer s.Close()

			type result struct {
				view    JobView
				outcome SubmitOutcome
				err     error
			}
			results := make([]result, submitters)
			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(submitters + 1)
			for i := 0; i < submitters; i++ {
				i := i
				go func() {
					defer wg.Done()
					<-start
					// Distinct seeds → distinct content keys → no dedupe;
					// every accepted submission is its own job.
					v, o, err := s.Submit(KindGapTable, Params{Sizes: []int{8}, Seed: uint64(1000*iter + i + 1)})
					results[i] = result{v, o, err}
				}()
			}
			go func() {
				defer wg.Done()
				<-start
				s.Drain()
			}()
			close(start)
			wg.Wait() // Drain() has returned: every accepted job must be terminal

			accepted, refused := 0, 0
			for i, r := range results {
				switch {
				case r.err == ErrDraining:
					refused++
				case r.err != nil:
					t.Fatalf("submit %d: unexpected error %v", i, r.err)
				case r.outcome == SubmitNew:
					accepted++
					done := make(chan JobView, 1)
					go func() {
						_, view, ok := s.Wait(r.view.Key)
						if ok {
							done <- view
						}
						close(done)
					}()
					select {
					case view, ok := <-done:
						if !ok {
							t.Fatalf("submit %d: accepted key %s vanished from the cache", i, r.view.Key)
						}
						if view.Status != StatusDone {
							t.Fatalf("submit %d: accepted job ended %s (err %q), want done", i, view.Status, view.Err)
						}
					case <-time.After(30 * time.Second):
						t.Fatalf("submit %d: accepted job never reached a terminal status — lost in the drain", i)
					}
				default:
					// SubmitDup is impossible (distinct keys) and the queue
					// can hold every submitter, so rejection means a bug.
					t.Fatalf("submit %d: unexpected outcome %v", i, r.outcome)
				}
			}
			if accepted+refused != submitters {
				t.Fatalf("accounted for %d+%d of %d submissions", accepted, refused, submitters)
			}
		})
	}
}
