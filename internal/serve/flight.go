package serve

import (
	"sync"
	"time"

	"dyndiam/internal/obs"
)

// Per-job flight recorder: a bounded ring of lifecycle events plus the
// metric snapshot taken when the job reached a terminal status. The
// recorder exists so that a panicking, timed-out, or failed job leaves a
// browsable record behind — GET /debug/jobs/{key} dumps it as JSON,
// /debug/jobs/{key}/trace as Chrome trace-event JSON for Perfetto.
//
// Clocks: job lifecycle spans ("queue_wait", "submit" -> execution start;
// "execute", start -> terminal status) sit on a milliseconds-since-server-
// start clock, the one layer of the repo allowed to read wall time (under
// //lint:allow determinism annotations). When Config.CaptureSweepSpans
// is set, the recorder is also the job's harness.Sweep.Spans sink, so the
// sweep-cell spans (Track 1, cell-index clock) land in it as well and one
// Perfetto load shows queue-wait -> execution -> per-cell activity on
// separate track lanes.

// Interned span names of the job lifecycle lane (Track 2).
var (
	keyQueueWait = obs.Intern("queue_wait")
	keyExecute   = obs.Intern("execute")
)

// jobTrack is the flight recorder's Track id for job lifecycle spans,
// following the repo convention: 0 = engine, 1 = harness cells, 2 = serve.
const jobTrack = 2

// flightRecorder captures one entry's event history. Emissions come from
// the submitting HTTP goroutine, the worker goroutine and the job's sweep,
// so the ring is guarded by its own mutex (obs.Ring itself is
// single-goroutine). Once the job is terminal the recorder is closed and
// drops further emissions: a sweep abandoned by the job budget that
// finishes late must not write spans after the job's execute end.
type flightRecorder struct {
	mu      sync.Mutex
	ring    *obs.Ring
	closed  bool
	metrics []obs.MetricPoint // server metric snapshot at terminal status
}

func newFlightRecorder(cap int) *flightRecorder {
	return &flightRecorder{ring: obs.NewRing(cap)}
}

// Emit appends one event to the bounded ring unless the recorder is
// closed. It makes the recorder an obs.Sink.
func (f *flightRecorder) Emit(ev obs.Event) {
	f.mu.Lock()
	if !f.closed {
		f.ring.Emit(ev)
	}
	f.mu.Unlock()
}

// finish appends the terminal event, stores the terminal metric snapshot
// and closes the recorder, all under one lock.
func (f *flightRecorder) finish(end obs.Event, metrics []obs.MetricPoint) {
	f.mu.Lock()
	f.ring.Emit(end)
	f.metrics = metrics
	f.closed = true
	f.mu.Unlock()
}

// snapshot returns a copy of the recorded events plus the drop count and
// the terminal metric snapshot (nil while the job is still in flight).
func (f *flightRecorder) snapshot() (events []obs.Event, dropped int, metrics []obs.MetricPoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Events(), f.ring.Dropped(), f.metrics
}

// nowMs positions an event on the recorder's clock: milliseconds since
// server start. Wall time here is presentation only — it never feeds back
// into experiment code, whose own clocks stay deterministic.
func (s *Server) nowMs() int32 {
	return int32(time.Since(s.start).Milliseconds()) //lint:allow determinism flight-recorder timeline, never observed by experiment code
}

// recordQueued opens the queue_wait span for a freshly enqueued entry.
// Callers hold s.mu (entry creation is atomic with enqueue).
func (s *Server) recordQueued(e *entry) {
	if e.flight == nil {
		return
	}
	e.flight.Emit(obs.Event{Kind: obs.KindSpanBegin, Round: s.nowMs(), Track: jobTrack, A: -1, Name: keyQueueWait})
}

// recordRunning closes queue_wait and opens execute.
func (s *Server) recordRunning(e *entry) {
	if e.flight == nil {
		return
	}
	t := s.nowMs()
	e.flight.Emit(obs.Event{Kind: obs.KindSpanEnd, Round: t, Track: jobTrack, A: -1, Name: keyQueueWait})
	e.flight.Emit(obs.Event{Kind: obs.KindSpanBegin, Round: t, Track: jobTrack, A: -1, Name: keyExecute})
}

// recordTerminal closes the execute span (A = 0 done, 1 failed), stores
// the terminal metric snapshot, and closes the recorder.
func (s *Server) recordTerminal(e *entry, failed bool) {
	if e.flight == nil {
		return
	}
	outcome := int64(0)
	if failed {
		outcome = 1
	}
	e.flight.finish(obs.Event{Kind: obs.KindSpanEnd, Round: s.nowMs(), Track: jobTrack, A: outcome, Name: keyExecute},
		s.MetricsRegistry().Snapshot())
}
