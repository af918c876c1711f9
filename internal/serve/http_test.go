package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndiam/internal/harness"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newStubServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getPath(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPSubmitPollFetchLifecycle(t *testing.T) {
	t.Parallel()
	_, ts := newHTTPServer(t, Config{})

	resp, data := postJob(t, ts, `{"kind":"figure","params":{"figure":2}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.Key == "" || view.Kind != KindFigure || view.Params.Figure != 2 {
		t.Fatalf("submit view = %+v", view)
	}

	// Poll until done (result answers 202 while pending).
	deadline := time.Now().Add(10 * time.Second)
	var body []byte
	for {
		resp, data := getPath(t, ts, "/jobs/"+view.Key+"/result")
		if resp.StatusCode == http.StatusOK {
			body = data
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll status = %d body %s", resp.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want := stubBody(KindFigure, view.Params); !bytes.Equal(body, want) {
		t.Fatalf("result body = %q want %q", body, want)
	}

	// Status endpoint agrees.
	resp, data = getPath(t, ts, "/jobs/"+view.Key)
	var status JobView
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || status.Status != StatusDone {
		t.Fatalf("status = %d %+v", resp.StatusCode, status)
	}

	// Resubmitting the same job is a 200 cache hit with the same key.
	resp, data = postJob(t, ts, `{"kind":"figure","params":{"figure":2}}`)
	var dup JobView
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || dup.Key != view.Key {
		t.Fatalf("resubmit = %d %+v", resp.StatusCode, dup)
	}

	// The listing shows the one entry.
	_, data = getPath(t, ts, "/jobs")
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Key != view.Key {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	t.Parallel()
	_, ts := newHTTPServer(t, Config{})
	for _, body := range []string{
		`{not json`,
		`{"kind":"no_such_kind","params":{}}`,
		`{"kind":"figure","params":{"figure":9}}`,
		`{"kind":"figure","unknown_field":1}`,
	} {
		resp, data := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %s", body, resp.StatusCode, data)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope = %s", body, data)
		}
	}
	for _, path := range []string{"/jobs/deadbeef", "/jobs/deadbeef/result"} {
		resp, _ := getPath(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d want 404", path, resp.StatusCode)
		}
	}
	// Wrong method on a known path.
	resp, err := http.Post(ts.URL+"/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d want 405", resp.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s, ts := newHTTPServer(t, Config{
		Workers:       1,
		QueueCap:      1,
		RetryAfterSec: 7,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			started <- struct{}{}
			<-release
			return stubBody(kind, p), nil
		},
	})
	defer close(release)

	resp, data := postJob(t, ts, `{"kind":"leader_reliability","params":{"n":8}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d %s", resp.StatusCode, data)
	}
	<-started // the worker holds job 1; the queue is empty again
	resp, _ = postJob(t, ts, `{"kind":"leader_reliability","params":{"n":12}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	// Queue full: immediate 429 with the configured Retry-After.
	resp, data = postJob(t, ts, `{"kind":"leader_reliability","params":{"n":16}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q want 7", got)
	}
	// A duplicate of an in-flight job still dedupes even while the queue
	// is full — backpressure only applies to new work.
	resp, _ = postJob(t, ts, `{"kind":"leader_reliability","params":{"n":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight duplicate = %d want 200", resp.StatusCode)
	}
	if got := counterValue(t, s, "serve_queue_rejected_total"); got != 1 {
		t.Errorf("rejected = %d want 1", got)
	}
}

// TestHTTPSingleflightRace is the acceptance stress: under -race, 64
// concurrent identical HTTP submissions must execute the harness exactly
// once and every client must fetch byte-identical result bodies.
func TestHTTPSingleflightRace(t *testing.T) {
	t.Parallel()
	const k = 64
	s, ts := newHTTPServer(t, Config{
		Workers: 4,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			return stubBody(kind, p), nil
		},
	})
	var wg sync.WaitGroup
	keys := make([]string, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json",
				strings.NewReader(`{"kind":"gap_table","params":{"sizes":[8,12],"seed":3}}`))
			if err != nil {
				errs[i] = err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var view JobView
			if err := json.Unmarshal(data, &view); err != nil {
				errs[i] = err
				return
			}
			keys[i] = view.Key
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	for i := 1; i < k; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("submitter %d got key %s want %s", i, keys[i], keys[0])
		}
	}
	if _, view, ok := s.Wait(keys[0]); !ok || view.Status != StatusDone {
		t.Fatalf("wait = (%+v, %v)", view, ok)
	}
	// All k clients fetch; bodies must be byte-identical.
	bodies := make([][]byte, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/jobs/" + keys[0] + "/result")
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("fetch status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("fetcher %d body differs", i)
		}
	}
	if got := counterValue(t, s, "serve_harness_executions_total"); got != 1 {
		t.Fatalf("executions = %d want 1", got)
	}
	if hits := counterValue(t, s, "serve_cache_hits_total"); hits != k-1 {
		t.Errorf("cache hits = %d want %d", hits, k-1)
	}
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{})
	view, _, err := s.Submit(KindFigure, Params{Figure: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(view.Key)

	resp, data := getPath(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"serve_requests_total 1",
		"serve_harness_executions_total 1",
		"serve_cache_misses_total 1",
		"serve_job_latency_ms_count 1",
		"serve_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, data = getPath(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, data)
	}

	resp, data = getPath(t, ts, "/readyz")
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("/readyz = %d %q before drain", resp.StatusCode, data)
	}
}

// TestHTTPDrainOrdering pins the graceful-drain sequence: once Drain
// begins, /readyz flips to 503 and new submissions are rejected (503),
// while existing entries stay readable and the queued-but-unstarted job
// still runs to completion before Drain returns — so a checkpoint taken
// after Drain includes it. Close would have dropped that queued job;
// Drain must not.
func TestHTTPDrainOrdering(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	started := make(chan Kind, 8)
	s, ts := newHTTPServer(t, Config{
		Workers:  1,
		QueueCap: 8,
		Exec: func(_ harness.Sweep, kind Kind, p Params) ([]byte, error) {
			started <- kind
			<-gate
			return stubBody(kind, p), nil
		},
	})

	// Job A occupies the single worker (blocked in exec); job B sits
	// queued behind it.
	respA, dataA := postJob(t, ts, `{"kind":"figure","params":{"figure":1}}`)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d body %s", respA.StatusCode, dataA)
	}
	var viewA JobView
	if err := json.Unmarshal(dataA, &viewA); err != nil {
		t.Fatal(err)
	}
	<-started // A is in-flight
	respB, dataB := postJob(t, ts, `{"kind":"figure","params":{"figure":2}}`)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B = %d body %s", respB.StatusCode, dataB)
	}
	var viewB JobView
	if err := json.Unmarshal(dataB, &viewB); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never flipped the draining flag")
		}
		time.Sleep(time.Millisecond)
	}

	// Draining: readiness 503, liveness 200.
	resp, data := getPath(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || string(data) != "draining\n" {
		t.Errorf("/readyz during drain = %d %q", resp.StatusCode, data)
	}
	resp, data = getPath(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("/healthz during drain = %d %q", resp.StatusCode, data)
	}

	// New work is rejected with 503 ...
	resp, data = postJob(t, ts, `{"kind":"figure","params":{"figure":3}}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Errorf("new submit during drain = %d %q, want 503 draining", resp.StatusCode, data)
	}
	// ... but a duplicate of an admitted entry is still served from cache.
	resp, data = postJob(t, ts, `{"kind":"figure","params":{"figure":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("dup submit during drain = %d %q, want 200", resp.StatusCode, data)
	}

	// Drain must not return while A is still in-flight and B is queued.
	select {
	case <-drained:
		t.Fatal("Drain returned before in-flight work finished")
	default:
	}

	close(gate)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after jobs were released")
	}

	// Both the in-flight job and the queued-but-unstarted one completed.
	for _, key := range []string{viewA.Key, viewB.Key} {
		view, ok := s.Job(key)
		if !ok || view.Status != StatusDone {
			t.Errorf("job %s after drain = %+v, want done", key, view)
		}
	}
	// The post-drain checkpoint includes the drained work.
	results := s.CachedResults()
	if len(results) != 2 {
		t.Fatalf("checkpoint after drain has %d results, want 2", len(results))
	}
	// Readiness stays down after the drain completes.
	resp, _ = getPath(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
}
