package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyndiam/internal/cliutil"
	"dyndiam/internal/harness"
)

// stubBody is what the stub executors below return; distinct per params
// so caching bugs that cross keys are visible.
func stubBody(kind Kind, p Params) []byte {
	return []byte(fmt.Sprintf("{\"kind\":%q,\"n\":%d}\n", kind, p.N))
}

func newStubServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Exec == nil {
		cfg.Exec = func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			return stubBody(kind, p), nil
		}
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, p := range s.MetricsRegistry().Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

func TestNormalizeDefaultsAndZeroing(t *testing.T) {
	t.Parallel()
	// Defaults land for each kind.
	p, err := normalize(KindLeaderReliability, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 16 || p.TargetDiam != 4 || p.Trials != 6 {
		t.Errorf("reliability defaults = %+v", p)
	}
	if p.Seed != 0 || p.Dim != "" || p.Rates != nil {
		t.Errorf("reliability kept fields it does not read: %+v", p)
	}
	// Fields a kind does not read cannot split the cache key.
	a, err := normalize(KindFigure, Params{Figure: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(KindFigure, Params{Figure: 2, N: 64, Seed: 9, Dim: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := jobKey(KindFigure, a)
	kb, _ := jobKey(KindFigure, b)
	if ka != kb {
		t.Error("irrelevant params split the content key")
	}
	// Degradation defaults include the clean anchor.
	d, err := normalize(KindCFloodDegradation, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim != "drop" || len(d.Rates) == 0 || d.Rates[0] != 0 || d.Seed != 1 {
		t.Errorf("degradation defaults = %+v", d)
	}
}

func TestNormalizeRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		kind Kind
		p    Params
	}{
		{"unknown kind", Kind("nope"), Params{}},
		{"n too large", KindLeaderReliability, Params{N: 100000}},
		{"n too small", KindLeaderReliability, Params{N: 2}},
		{"trials too large", KindLeaderReliability, Params{Trials: 1000000}},
		{"bad dimension", KindLeaderDegradation, Params{Dim: "gamma-rays"}},
		{"rate out of range", KindLeaderDegradation, Params{Rates: []float64{2}}},
		{"even q", KindReduction, Params{Qs: []int{4}}},
		{"bad figure", KindFigure, Params{Figure: 9}},
		{"bad gap size", KindGapTable, Params{Sizes: []int{1}}},
	}
	for _, tc := range cases {
		if _, err := normalize(tc.kind, tc.p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSubmitLifecycleAndDedupe(t *testing.T) {
	t.Parallel()
	s := newStubServer(t, Config{})
	view, outcome, err := s.Submit(KindFigure, Params{Figure: 1})
	if err != nil || outcome != SubmitNew {
		t.Fatalf("first submit = (%v, %v, %v)", view, outcome, err)
	}
	body, final, ok := s.Wait(view.Key)
	if !ok || final.Status != StatusDone {
		t.Fatalf("wait = (%q, %+v, %v)", body, final, ok)
	}
	if string(body) != string(stubBody(KindFigure, final.Params)) {
		t.Fatalf("body = %q", body)
	}
	// Resubmission — with irrelevant fields set — is a cache hit.
	again, outcome, err := s.Submit(KindFigure, Params{Figure: 1, N: 99})
	if err != nil || outcome != SubmitDup || again.Key != view.Key {
		t.Fatalf("resubmit = (%v, %v, %v)", again, outcome, err)
	}
	if got := counterValue(t, s, "serve_harness_executions_total"); got != 1 {
		t.Errorf("executions = %d want 1", got)
	}
	if got := counterValue(t, s, "serve_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %d want 1", got)
	}
	// Listing preserves insertion order and finds the entry.
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].Key != view.Key {
		t.Errorf("jobs = %+v", jobs)
	}
}

func TestSubmitInvalidParams(t *testing.T) {
	t.Parallel()
	s := newStubServer(t, Config{})
	if _, _, err := s.Submit(Kind("nope"), Params{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, _, err := s.Submit(KindFigure, Params{Figure: 7}); err == nil {
		t.Error("invalid figure accepted")
	}
	if len(s.Jobs()) != 0 {
		t.Error("invalid submissions left cache entries")
	}
}

func TestQueueFullRejectsWithoutBlocking(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newStubServer(t, Config{
		Workers:  1,
		QueueCap: 1,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			started <- struct{}{}
			<-release
			return stubBody(kind, p), nil
		},
	})
	defer close(release)

	// First job occupies the only worker...
	a, outcome, err := s.Submit(KindLeaderReliability, Params{N: 8})
	if err != nil || outcome != SubmitNew {
		t.Fatalf("submit a = (%v, %v)", outcome, err)
	}
	<-started
	// ...second fills the queue...
	_, outcome, err = s.Submit(KindLeaderReliability, Params{N: 12})
	if err != nil || outcome != SubmitNew {
		t.Fatalf("submit b = (%v, %v)", outcome, err)
	}
	// ...third bounces immediately (this would deadlock if Submit blocked).
	done := make(chan SubmitOutcome, 1)
	go func() {
		_, o, _ := s.Submit(KindLeaderReliability, Params{N: 16})
		done <- o
	}()
	select {
	case o := <-done:
		if o != SubmitRejected {
			t.Fatalf("third submit = %v want SubmitRejected", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked on a full queue")
	}
	if got := counterValue(t, s, "serve_queue_rejected_total"); got != 1 {
		t.Errorf("rejected = %d want 1", got)
	}
	// A rejected submission leaves no cache entry: retrying later works.
	if _, ok := s.Job(a.Key); !ok {
		t.Error("accepted entry vanished")
	}
	if len(s.Jobs()) != 2 {
		t.Errorf("cache has %d entries want 2", len(s.Jobs()))
	}
}

func TestSingleflightStress(t *testing.T) {
	t.Parallel()
	const k = 64
	var execs atomic.Int64
	s := newStubServer(t, Config{
		Workers: 4,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			execs.Add(1)
			time.Sleep(20 * time.Millisecond) // hold the entry in-flight across submissions
			return stubBody(kind, p), nil
		},
	})
	keys := make(chan string, k)
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			view, _, err := s.Submit(KindGapTable, Params{Sizes: []int{8, 12}})
			if err != nil {
				errs <- err
				return
			}
			keys <- view.Key
		}()
	}
	var first string
	bodies := make(map[string]int)
	for i := 0; i < k; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case key := <-keys:
			if first == "" {
				first = key
			} else if key != first {
				t.Fatalf("submission %d got key %s want %s", i, key, first)
			}
		}
	}
	body, view, ok := s.Wait(first)
	if !ok || view.Status != StatusDone {
		t.Fatalf("wait = (%+v, %v)", view, ok)
	}
	// Every fetch serves the same bytes.
	for i := 0; i < k; i++ {
		b, _, _ := s.ResultBody(first)
		bodies[string(b)]++
	}
	if len(bodies) != 1 || bodies[string(body)] != k {
		t.Fatalf("bodies not byte-identical: %d distinct", len(bodies))
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executor ran %d times want 1", got)
	}
	if got := counterValue(t, s, "serve_harness_executions_total"); got != 1 {
		t.Fatalf("executions counter = %d want 1", got)
	}
	if hits := counterValue(t, s, "serve_cache_hits_total"); hits != k-1 {
		t.Errorf("cache hits = %d want %d", hits, k-1)
	}
}

func TestJobBudgetDegradesToRecordedError(t *testing.T) {
	t.Parallel()
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	s := newStubServer(t, Config{
		Workers:   1,
		JobBudget: 20 * time.Millisecond,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			<-hung // never returns within the budget
			return nil, errors.New("unreachable")
		},
	})
	view, _, err := s.Submit(KindFigure, Params{Figure: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, final, ok := s.Wait(view.Key)
	if !ok || final.Status != StatusFailed {
		t.Fatalf("final = (%+v, %v) want failed", final, ok)
	}
	if !strings.Contains(final.Err, "exceeded budget") {
		t.Errorf("err = %q", final.Err)
	}
	// The worker survived the hung job and still serves new work.
	next, _, err := s.Submit(KindFigure, Params{Figure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, v, ok := s.Wait(next.Key); !ok || v.Status != StatusFailed {
		t.Fatalf("post-hang job = (%+v, %v)", v, ok)
	}
	if got := counterValue(t, s, "serve_jobs_failed_total"); got != 2 {
		t.Errorf("failed = %d want 2", got)
	}
}

// TestJobSweepRunsSerially: a job's sweep runs its cells one at a time,
// under the configured round budget; the worker pool is the server's
// parallelism.
func TestJobSweepRunsSerially(t *testing.T) {
	t.Parallel()
	got := make(chan harness.Sweep, 1)
	s := newStubServer(t, Config{RoundBudget: 77, Exec: func(sw harness.Sweep, kind Kind, p Params) ([]byte, error) {
		got <- sw
		return stubBody(kind, p), nil
	}})
	view, _, err := s.Submit(KindFigure, Params{Figure: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, final, ok := s.Wait(view.Key); !ok || final.Status != StatusDone {
		t.Fatalf("final = (%+v, %v)", final, ok)
	}
	if sw := <-got; sw.Workers != 1 || sw.Budget != 77 {
		t.Fatalf("job sweep = %+v, want Workers 1 and Budget 77", sw)
	}
}

func TestPanicDegradesToRecordedError(t *testing.T) {
	t.Parallel()
	s := newStubServer(t, Config{
		Exec: func(harness.Sweep, Kind, Params) ([]byte, error) {
			var rows []int
			_ = rows[3] // out-of-range panic, as a buggy sweep would
			return nil, nil
		},
	})
	view, _, err := s.Submit(KindFigure, Params{Figure: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, final, ok := s.Wait(view.Key)
	if !ok || final.Status != StatusFailed || !strings.Contains(final.Err, "panicked") {
		t.Fatalf("final = (%+v, %v) want recorded panic", final, ok)
	}
}

func TestExecErrorRecorded(t *testing.T) {
	t.Parallel()
	s := newStubServer(t, Config{
		Exec: func(harness.Sweep, Kind, Params) ([]byte, error) {
			return nil, errors.New("sweep exploded")
		},
	})
	view, _, err := s.Submit(KindReduction, Params{})
	if err != nil {
		t.Fatal(err)
	}
	body, final, ok := s.Wait(view.Key)
	if !ok || final.Status != StatusFailed || final.Err != "sweep exploded" || body != nil {
		t.Fatalf("final = (%q, %+v, %v)", body, final, ok)
	}
}

func TestPreloadRoundtrip(t *testing.T) {
	t.Parallel()
	s := newStubServer(t, Config{})
	view, _, err := s.Submit(KindFigure, Params{Figure: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, _, _ := s.Wait(view.Key)
	saved := s.CachedResults()
	if len(saved) != 1 || saved[0].Key != view.Key || string(saved[0].Body) != string(body) {
		t.Fatalf("saved = %+v", saved)
	}

	// Round-trip through an actual checkpoint file: the indented
	// envelope must not disturb the stored body bytes (the body is
	// opaque []byte precisely so re-indentation cannot touch it).
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	if err := cliutil.SaveJSON(ckpt, saved); err != nil {
		t.Fatal(err)
	}
	var loaded []CachedResult
	if found, err := cliutil.LoadJSON(ckpt, &loaded); err != nil || !found {
		t.Fatalf("LoadJSON = (%v, %v)", found, err)
	}
	if len(loaded) != 1 || string(loaded[0].Body) != string(body) {
		t.Fatalf("checkpoint file changed the body: %q", loaded[0].Body)
	}

	// A fresh server preloads the checkpoint and serves it from cache.
	var execs atomic.Int64
	s2 := newStubServer(t, Config{Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
		execs.Add(1)
		return stubBody(kind, p), nil
	}})
	if got := s2.Preload(loaded); got != 1 {
		t.Fatalf("preload = %d want 1", got)
	}
	again, outcome, err := s2.Submit(KindFigure, Params{Figure: 1})
	if err != nil || outcome != SubmitDup {
		t.Fatalf("post-preload submit = (%v, %v)", outcome, err)
	}
	b, v, ok := s2.ResultBody(again.Key)
	if !ok || v.Status != StatusDone || string(b) != string(body) {
		t.Fatalf("preloaded result = (%q, %+v, %v)", b, v, ok)
	}
	if execs.Load() != 0 {
		t.Error("preloaded key still executed the harness")
	}

	// Tampered records are skipped, not trusted.
	bad := saved[0]
	bad.Key = strings.Repeat("0", 64)
	invalid := CachedResult{Key: "x", Kind: Kind("nope")}
	s3 := newStubServer(t, Config{})
	if got := s3.Preload([]CachedResult{bad, invalid}); got != 0 {
		t.Fatalf("tampered preload accepted %d records", got)
	}
	// Re-preloading an existing key is idempotent.
	if got := s2.Preload(saved); got != 0 {
		t.Errorf("duplicate preload accepted %d records", got)
	}
}

func TestKindsCoveredByNormalize(t *testing.T) {
	t.Parallel()
	for _, kind := range Kinds() {
		if _, err := normalize(kind, Params{}); err != nil {
			t.Errorf("%s: zero params rejected: %v", kind, err)
		}
	}
}
