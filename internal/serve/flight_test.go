package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
)

// debugJobDump mirrors handleDebugJob's response body.
type debugJobDump struct {
	Job     JobView           `json:"job"`
	Events  []flightEventJSON `json:"events"`
	Dropped int               `json:"dropped"`
	Metrics []obs.MetricPoint `json:"metrics"`
}

// submitAndWait pushes one job through the HTTP submit path and blocks
// until it reaches a terminal status, returning its content key.
func submitAndWait(t *testing.T, s *Server, ts *httptest.Server, body string) string {
	t.Helper()
	resp, data := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Wait(view.Key); !ok {
		t.Fatalf("Wait(%q) lost the job", view.Key)
	}
	return view.Key
}

func getDebugDump(t *testing.T, ts *httptest.Server, key string) debugJobDump {
	t.Helper()
	resp, data := getPath(t, ts, "/debug/jobs/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug dump status = %d body %s", resp.StatusCode, data)
	}
	var dump debugJobDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestFlightRecorderLifecycle(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{Workers: 1})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	// The index lists the job with its event count.
	resp, data := getPath(t, ts, "/debug/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	var index struct {
		Jobs []debugJobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(data, &index); err != nil {
		t.Fatal(err)
	}
	if len(index.Jobs) != 1 || index.Jobs[0].Key != key {
		t.Fatalf("index = %+v", index.Jobs)
	}
	if index.Jobs[0].Status != StatusDone || index.Jobs[0].Events != 4 || index.Jobs[0].Dropped != 0 {
		t.Errorf("index row = %+v, want done with 4 events, 0 dropped", index.Jobs[0])
	}

	// The dump holds the full lifecycle: queue_wait open/close, execute
	// open/close, all on the job lane, on a nondecreasing ms clock.
	dump := getDebugDump(t, ts, key)
	if dump.Job.Status != StatusDone {
		t.Fatalf("dumped job = %+v", dump.Job)
	}
	want := []struct {
		kind, name string
		a          int64
	}{
		{"span_begin", "queue_wait", -1},
		{"span_end", "queue_wait", -1},
		{"span_begin", "execute", -1},
		{"span_end", "execute", 0}, // 0 = completed without error
	}
	if len(dump.Events) != len(want) {
		t.Fatalf("events = %+v, want %d lifecycle events", dump.Events, len(want))
	}
	for i, w := range want {
		ev := dump.Events[i]
		if ev.Kind != w.kind || ev.Name != w.name || ev.A != w.a || ev.Track != jobTrack {
			t.Errorf("event[%d] = %+v, want kind %s name %s a %d on track %d", i, ev, w.kind, w.name, w.a, jobTrack)
		}
		if i > 0 && ev.T < dump.Events[i-1].T {
			t.Errorf("event[%d] at t=%d before event[%d] at t=%d", i, ev.T, i-1, dump.Events[i-1].T)
		}
	}

	// The terminal metric snapshot reflects the finished job.
	if len(dump.Metrics) == 0 {
		t.Fatal("terminal metric snapshot missing")
	}
	byName := map[string]int64{}
	for _, p := range dump.Metrics {
		byName[p.Name] = p.Value
	}
	if byName["serve_harness_executions_total"] != 1 {
		t.Errorf("snapshot executions = %d, want 1", byName["serve_harness_executions_total"])
	}
	if byName["serve_jobs_failed_total"] != 0 {
		t.Errorf("snapshot failed = %d, want 0", byName["serve_jobs_failed_total"])
	}

	// The trace endpoint serves Chrome trace-event JSON with both spans
	// as complete ("X") events.
	resp, data = getPath(t, ts, "/debug/jobs/"+key+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	spans := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	if !spans["queue_wait"] || !spans["execute"] {
		t.Errorf("trace spans = %v, want queue_wait and execute as X events", spans)
	}
}

func TestFlightRecorderFailedJob(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{
		Workers: 1,
		Exec: func(harness.Sweep, Kind, Params) ([]byte, error) {
			return nil, errors.New("synthetic sweep failure")
		},
	})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	if dump.Job.Status != StatusFailed || !strings.Contains(dump.Job.Err, "synthetic sweep failure") {
		t.Fatalf("dumped job = %+v, want failed with the exec error", dump.Job)
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != "span_end" || last.Name != "execute" || last.A != 1 {
		t.Errorf("terminal event = %+v, want execute span_end with a=1 (failed)", last)
	}
	for _, p := range dump.Metrics {
		if p.Name == "serve_jobs_failed_total" && p.Value != 1 {
			t.Errorf("snapshot failed = %d, want 1", p.Value)
		}
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	t.Parallel()
	// A cap of 2 keeps only the newest two of the four lifecycle events
	// and reports the rest as dropped instead of growing.
	s, ts := newHTTPServer(t, Config{Workers: 1, FlightRecorderCap: 2})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	if len(dump.Events) != 2 || dump.Dropped != 2 {
		t.Fatalf("events = %d dropped = %d, want 2 kept / 2 dropped", len(dump.Events), dump.Dropped)
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != "span_end" || last.Name != "execute" {
		t.Errorf("newest event = %+v, want the terminal execute span_end", last)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	t.Parallel()
	s, ts := newHTTPServer(t, Config{Workers: 1, FlightRecorderCap: -1})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	// The index still lists the job, just without events.
	resp, data := getPath(t, ts, "/debug/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	var index struct {
		Jobs []debugJobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(data, &index); err != nil {
		t.Fatal(err)
	}
	if len(index.Jobs) != 1 || index.Jobs[0].Events != 0 {
		t.Fatalf("index = %+v, want the job with 0 events", index.Jobs)
	}

	for _, path := range []string{"/debug/jobs/" + key, "/debug/jobs/" + key + "/trace"} {
		resp, data := getPath(t, ts, path)
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "disabled") {
			t.Errorf("GET %s = %d %s, want 404 explaining recording is disabled", path, resp.StatusCode, data)
		}
	}
}

func TestFlightRecorderUnknownKey(t *testing.T) {
	t.Parallel()
	_, ts := newHTTPServer(t, Config{})
	for _, path := range []string{"/debug/jobs/no-such-key", "/debug/jobs/no-such-key/trace"} {
		resp, data := getPath(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d %s, want 404", path, resp.StatusCode, data)
		}
	}
}

func TestFlightRecorderCaptureSweepSpans(t *testing.T) {
	t.Parallel()
	// The stub runs a real two-cell harness sweep under the job's Sweep,
	// whose Spans sink is the job's flight recorder.
	s, ts := newHTTPServer(t, Config{
		Workers:           1,
		CaptureSweepSpans: true,
		Exec: func(sw harness.Sweep, kind Kind, p Params) ([]byte, error) {
			if _, err := sw.GapTable([]int{8, 12}, 2, 5); err != nil {
				return nil, err
			}
			return stubBody(kind, p), nil
		},
	})
	key := submitAndWait(t, s, ts, `{"kind":"figure","params":{"figure":2}}`)

	dump := getDebugDump(t, ts, key)
	// 4 lifecycle events + 2 cells x (begin, end).
	if len(dump.Events) != 8 {
		t.Fatalf("events = %+v, want 8 (lifecycle + 2 sweep cells)", dump.Events)
	}
	var cells []flightEventJSON
	for _, ev := range dump.Events {
		if ev.Track == 1 {
			cells = append(cells, ev)
		}
	}
	if len(cells) != 4 {
		t.Fatalf("sweep-lane events = %+v, want 4", cells)
	}
	for i, ev := range cells {
		wantKind := "span_begin"
		if i%2 == 1 {
			wantKind = "span_end"
		}
		cell := int32(i / 2)
		if ev.Kind != wantKind || ev.Name != "sweep_cell" || ev.Node != cell || ev.A <= 0 {
			t.Errorf("sweep event[%d] = %+v, want %s for cell %d with positive rounds", i, ev, wantKind, cell)
		}
	}
	// The folded spans land before the terminal execute span_end, so the
	// Perfetto view nests cells inside the job's execution window.
	last := dump.Events[len(dump.Events)-1]
	if last.Name != "execute" || last.Kind != "span_end" {
		t.Errorf("newest event = %+v, want the terminal execute span_end", last)
	}
}

// sweepLane returns the sweep-cell (Track 1) events of a recording.
func sweepLane(evs []flightEventJSON) []flightEventJSON {
	var out []flightEventJSON
	for _, ev := range evs {
		if ev.Track == 1 {
			out = append(out, ev)
		}
	}
	return out
}

// directGapSpans runs the gap table of a normalized job outside the
// server and returns the cell spans the sweep emits on its own.
func directGapSpans(t *testing.T, p Params) []flightEventJSON {
	t.Helper()
	ring := obs.NewRing(64)
	if _, err := (harness.Sweep{Spans: ring}).GapTable(p.Sizes, p.TargetDiam, p.Seed); err != nil {
		t.Fatal(err)
	}
	return flightEventsJSON(ring.Events())
}

// TestCaptureSweepSpansConcurrentServers runs a capturing server next to
// two non-capturing ones, all executing real gap_table sweeps at once,
// with several capturing jobs in flight together. Every capturing job's
// recording must hold exactly the cell spans its own sweep emits when run
// alone: nothing from its neighbours on the same server or on the others.
func TestCaptureSweepSpansConcurrentServers(t *testing.T) {
	t.Parallel()
	capturing := newStubServer(t, Config{Workers: 3, CaptureSweepSpans: true, Exec: run})
	ts := httptest.NewServer(capturing.Handler())
	t.Cleanup(ts.Close)
	servers := []*Server{
		capturing,
		newStubServer(t, Config{Workers: 2, Exec: run}),
		newStubServer(t, Config{Workers: 2, Exec: run}),
	}
	// Jobs differ in cell count so a foreign cell changes the recording.
	sizes := [][]int{{8}, {8, 12}, {8, 12, 16}}
	keys := make([][]string, len(servers))
	errs := make(chan error, len(servers))
	var wg sync.WaitGroup
	for si, srv := range servers {
		wg.Add(1)
		go func(si int, srv *Server) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				p := Params{Sizes: sizes[j%len(sizes)], TargetDiam: 2, Seed: uint64(10*si + j + 1)}
				v, _, err := srv.Submit(KindGapTable, p)
				if err != nil {
					errs <- err
					return
				}
				keys[si] = append(keys[si], v.Key)
			}
			for _, key := range keys[si] {
				if _, v, _ := srv.Wait(key); v.Status != StatusDone {
					errs <- fmt.Errorf("server %d job %s: %+v", si, key, v)
					return
				}
			}
		}(si, srv)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, key := range keys[0] {
		dump := getDebugDump(t, ts, key)
		want := directGapSpans(t, dump.Job.Params)
		if got := sweepLane(dump.Events); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s (sizes %v) recorded sweep events\n %+v\nwant its own cells\n %+v",
				key, dump.Job.Params.Sizes, got, want)
		}
		if len(dump.Events) != 4+len(want) {
			t.Errorf("job %s: %d events, want 4 lifecycle + %d sweep", key, len(dump.Events), len(want))
		}
	}
}

// TestCaptureSweepSpansAbandonedJob: a capturing job abandoned by its job
// budget whose sweep finishes later, while another capturing job is
// executing, must leave no sweep_cell event after its own execute end, and
// none of its spans may reach the other job's recording. The two jobs run
// on separate servers so only the first one has a budget.
func TestCaptureSweepSpansAbandonedJob(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	lateDone := make(chan struct{})
	slowSrv, slowTS := newHTTPServer(t, Config{
		Workers:           1,
		JobBudget:         20 * time.Millisecond,
		CaptureSweepSpans: true,
		Exec: func(sw harness.Sweep, kind Kind, p Params) ([]byte, error) {
			// The sweep starts only after the budget abandoned the job,
			// once the other job is executing.
			<-release
			defer close(lateDone)
			if _, err := sw.GapTable([]int{8, 12}, 2, 5); err != nil {
				return nil, err
			}
			return stubBody(kind, p), nil
		},
	})
	nextSrv, nextTS := newHTTPServer(t, Config{
		Workers:           1,
		CaptureSweepSpans: true,
		Exec: func(sw harness.Sweep, kind Kind, p Params) ([]byte, error) {
			close(release)
			<-lateDone
			if _, err := sw.GapTable([]int{8, 12}, 2, 5); err != nil {
				return nil, err
			}
			return stubBody(kind, p), nil
		},
	})
	slow := submitAndWait(t, slowSrv, slowTS, `{"kind":"figure","params":{"figure":1}}`)
	next := submitAndWait(t, nextSrv, nextTS, `{"kind":"figure","params":{"figure":1}}`)

	dump := getDebugDump(t, slowTS, slow)
	if dump.Job.Status != StatusFailed || !strings.Contains(dump.Job.Err, "exceeded budget") {
		t.Fatalf("slow job = %+v, want failed by the job budget", dump.Job)
	}
	ended := false
	for _, ev := range dump.Events {
		if ev.Name == "execute" && ev.Kind == "span_end" {
			ended = true
		} else if ended && ev.Name == "sweep_cell" {
			t.Errorf("abandoned job recorded %+v after its execute end", ev)
		}
	}
	if !ended {
		t.Fatalf("abandoned job has no execute end: %+v", dump.Events)
	}

	dump = getDebugDump(t, nextTS, next)
	if dump.Job.Status != StatusDone {
		t.Fatalf("next job = %+v, want done", dump.Job)
	}
	want := directGapSpans(t, Params{Sizes: []int{8, 12}, TargetDiam: 2, Seed: 5})
	if got := sweepLane(dump.Events); !reflect.DeepEqual(got, want) {
		t.Errorf("next job recorded sweep events\n %+v\nwant only its own cells\n %+v", got, want)
	}
}
