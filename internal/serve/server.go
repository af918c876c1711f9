// Package serve exposes the repo's experiments — reliability runs,
// degradation grids, the gap table, the Theorem 6 reduction, and the
// construction figures — as an HTTP/JSON job service (stdlib only).
//
// Every experiment in this repo is a pure function of its normalized
// parameters, which buys the service two structural properties:
//
//   - Results are content-addressed. A job's identity is the SHA-256 of
//     (kind, canonical params JSON); its result body is marshaled once
//     and every fetch of that key serves the same bytes.
//   - Identical submissions deduplicate, singleflight-style. The cache
//     holds one entry per key whatever its state (queued, running, done,
//     failed), and the dedupe-or-enqueue decision is atomic under one
//     mutex, so K concurrent identical submissions execute the harness
//     exactly once and all observe the same entry.
//
// Scheduling is a bounded FIFO queue drained by a fixed worker pool.
// When the queue is full, Submit rejects immediately (the HTTP layer
// maps this to 429 + Retry-After) rather than blocking the accept loop.
// Each job runs under an optional wall-clock budget in a guarded
// goroutine: overruns and panics degrade to a recorded failed entry, and
// the worker moves on.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dyndiam/internal/harness"
)

// ErrDraining is returned by Submit for new work while the server is
// draining. The HTTP layer maps it to 503; duplicate submissions of
// existing entries are still answered from cache.
var ErrDraining = errors.New("serve: server is draining; not accepting new jobs")

// Status is the lifecycle state of a cache entry.
type Status string

// Entry lifecycle: Queued -> Running -> Done | Failed. Preloaded
// checkpoint entries start at Done.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Config tunes a Server. The zero value is usable: New fills defaults.
type Config struct {
	// Workers is the size of the worker pool (default 2).
	Workers int
	// QueueCap bounds the FIFO job queue; a full queue rejects new work
	// (default 32).
	QueueCap int
	// JobBudget bounds one job's wall-clock time; overruns are abandoned
	// and recorded as failed. 0 means unlimited.
	JobBudget time.Duration
	// RetryAfterSec is the Retry-After hint on 429 responses (default 1).
	RetryAfterSec int
	// Exec overrides the harness executor — tests stub it to drive the
	// scheduling machinery without running sweeps. It receives the job's
	// sweep options (see RoundBudget and CaptureSweepSpans). Default: run.
	Exec func(harness.Sweep, Kind, Params) ([]byte, error)
	// FlightRecorderCap bounds each job's flight-recorder event ring
	// (default 512 events; the oldest events drop first). Negative
	// disables per-job recording entirely.
	FlightRecorderCap int
	// CaptureSweepSpans folds the harness's per-cell sweep spans into
	// each job's flight recorder (the job's harness.Sweep.Spans), so a
	// Perfetto load of the job trace shows its cells. Jobs run
	// concurrently, each capturing into its own recorder.
	CaptureSweepSpans bool
	// RoundBudget caps the rounds of each open-ended harness run (the
	// job's harness.Sweep.Budget); < 1 means harness.DefaultRoundBudget.
	RoundBudget int
}

// entry is one cache slot: the single authority for a content key. All
// mutable fields are guarded by Server.mu; done is closed exactly once
// when the entry reaches a terminal status.
type entry struct {
	key    string
	kind   Kind
	params Params
	status Status
	body   []byte
	errMsg string
	done   chan struct{}
	flight *flightRecorder // nil when recording is disabled
}

// JobView is the externally visible snapshot of a cache entry.
type JobView struct {
	Key    string `json:"key"`
	Kind   Kind   `json:"kind"`
	Params Params `json:"params"`
	Status Status `json:"status"`
	Err    string `json:"err,omitempty"`
}

// view snapshots e. Callers must hold Server.mu.
func (e *entry) view() JobView {
	return JobView{Key: e.key, Kind: e.kind, Params: e.params, Status: e.status, Err: e.errMsg}
}

// Server schedules experiment jobs over a content-addressed result
// cache. Create with New, serve its Handler, stop with Close.
type Server struct {
	cfg  Config
	exec func(harness.Sweep, Kind, Params) ([]byte, error)

	mu    sync.Mutex
	cache map[string]*entry
	order []string // insertion order; the no-map-iteration listing walk

	queue chan *entry
	quit  chan struct{}
	wg    sync.WaitGroup

	// draining (guarded by mu) makes Submit reject new work; drain is
	// closed once by Drain to switch the workers into run-down mode.
	draining  bool
	drain     chan struct{}
	drainOnce sync.Once

	// start anchors the flight recorders' milliseconds clock.
	start time.Time

	m metrics
}

// New builds a Server and starts its worker pool. The caller owns the
// shutdown: Close stops the workers (queued-but-unstarted jobs stay
// queued and are dropped with the process).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 32
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	if cfg.FlightRecorderCap == 0 {
		cfg.FlightRecorderCap = 512
	}
	s := &Server{
		cfg:   cfg,
		exec:  cfg.Exec,
		cache: map[string]*entry{},
		queue: make(chan *entry, cfg.QueueCap),
		quit:  make(chan struct{}),
		drain: make(chan struct{}),
		start: time.Now(), //lint:allow servedeterminism flight-recorder clock anchor, never observed by experiment code
	}
	if s.exec == nil {
		s.exec = run
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the worker pool and waits for in-flight jobs to finish
// (or to be abandoned by their budget).
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

// Drain is the graceful counterpart to Close: it stops accepting new
// submissions (Submit answers ErrDraining, /readyz flips to 503), then
// blocks until the workers have finished every queued AND in-flight job
// — each still bounded by the job budget — before returning. Close, by
// contrast, abandons queued-but-unstarted entries. The caller checkpoints
// after Drain returns so the saved cache includes the drained work.
// Idempotent; safe to combine with a later Close.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		close(s.drain)
	})
	s.wg.Wait()
}

// Draining reports whether Drain has begun; the readiness probe keys off
// it.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SubmitOutcome classifies what Submit did with a valid submission.
type SubmitOutcome int

const (
	// SubmitNew means a fresh entry was created and enqueued.
	SubmitNew SubmitOutcome = iota
	// SubmitDup means an existing entry (any status) absorbed the
	// submission — the singleflight/cache-hit path.
	SubmitDup
	// SubmitRejected means the queue was full; nothing was recorded and
	// the client should retry later.
	SubmitRejected
)

// Submit normalizes and content-addresses one job request, then either
// returns the existing entry for its key, enqueues a fresh one, or
// rejects for backpressure. Lookup and enqueue happen atomically under
// one mutex — a concurrent identical submission can never observe a key
// that is about to be rolled back, and the queue send is non-blocking so
// Submit never stalls the accept loop.
func (s *Server) Submit(kind Kind, p Params) (JobView, SubmitOutcome, error) {
	s.m.requests.Add(1)
	np, err := normalize(kind, p)
	if err != nil {
		return JobView{}, SubmitRejected, err
	}
	key, err := jobKey(kind, np)
	if err != nil {
		return JobView{}, SubmitRejected, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache[key]; ok {
		s.m.cacheHits.Add(1)
		return e.view(), SubmitDup, nil
	}
	if s.draining {
		// Cache hits above are still served — a drain refuses new work,
		// not reads of entries it is finishing.
		return JobView{}, SubmitRejected, ErrDraining
	}
	s.m.cacheMiss.Add(1)
	e := &entry{key: key, kind: kind, params: np, status: StatusQueued, done: make(chan struct{})}
	if s.cfg.FlightRecorderCap > 0 {
		e.flight = newFlightRecorder(s.cfg.FlightRecorderCap)
	}
	select {
	case s.queue <- e:
		s.cache[key] = e
		s.order = append(s.order, key)
		s.recordQueued(e)
		return e.view(), SubmitNew, nil
	default:
		s.m.rejected.Add(1)
		return JobView{}, SubmitRejected, nil
	}
}

// Job returns the entry for key, if any.
func (s *Server) Job(key string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache[key]
	if !ok {
		return JobView{}, false
	}
	return e.view(), true
}

// Jobs lists every cache entry in insertion order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, key := range s.order {
		out = append(out, s.cache[key].view())
	}
	return out
}

// ResultBody returns the stored result bytes for key. ok reports whether
// the key exists at all; a nil body with ok=true means the job is still
// pending or failed (check the view).
func (s *Server) ResultBody(key string) (body []byte, view JobView, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.cache[key]
	if !exists {
		return nil, JobView{}, false
	}
	return e.body, e.view(), true
}

// Wait blocks until the entry for key reaches a terminal status and
// returns its final view and body. Unknown keys return ok=false
// immediately. Intended for tests and embedded (non-HTTP) callers; HTTP
// clients poll instead.
func (s *Server) Wait(key string) (body []byte, view JobView, ok bool) {
	s.mu.Lock()
	e, exists := s.cache[key]
	s.mu.Unlock()
	if !exists {
		return nil, JobView{}, false
	}
	<-e.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.body, e.view(), true
}

// RetryAfterSec exposes the configured backpressure hint.
func (s *Server) RetryAfterSec() int { return s.cfg.RetryAfterSec }

// worker drains the queue until Close. After Drain it switches to
// run-down mode: finish everything already queued, then exit. Submit
// stopped admitting entries before the drain channel closed, so an empty
// queue observed in run-down mode is permanently empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case e := <-s.queue:
			s.runJob(e)
		case <-s.drain:
			for {
				select {
				case e := <-s.queue:
					s.runJob(e)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one entry to a terminal status. The harness execution
// counter increments exactly once per entry — the singleflight assertion
// that K identical submissions cost one sweep keys off it.
func (s *Server) runJob(e *entry) {
	s.mu.Lock()
	e.status = StatusRunning
	s.mu.Unlock()
	s.m.executions.Add(1)
	s.recordRunning(e)
	start := time.Now() //lint:allow servedeterminism job latency metric, never observed by experiment code
	// A job runs its sweep cells one at a time: the worker pool is the
	// server's parallelism, and it already runs jobs side by side.
	sw := harness.Sweep{Workers: 1, Budget: s.cfg.RoundBudget}
	if s.cfg.CaptureSweepSpans && e.flight != nil {
		sw.Spans = e.flight
	}
	body, err := s.execGuarded(sw, e.kind, e.params)
	s.m.lat.observe(time.Since(start).Milliseconds()) //lint:allow servedeterminism job latency metric, never observed by experiment code
	s.mu.Lock()
	if err != nil {
		e.status = StatusFailed
		e.errMsg = err.Error()
		s.m.failed.Add(1)
	} else {
		e.status = StatusDone
		e.body = body
	}
	s.mu.Unlock()
	// The terminal record is written after the status flip so the dumped
	// metric snapshot reflects the finished job, and before done is closed
	// so a Wait that returns always finds that snapshot.
	s.recordTerminal(e, err != nil)
	close(e.done)
}

// execGuarded runs the executor in a guarded goroutine: panics become
// errors, and with a JobBudget configured an overrunning job is
// abandoned (its goroutine finishes into a buffered channel and is
// garbage collected) so one hung sweep degrades to a recorded failure
// instead of wedging a worker forever. Same containment pattern as the
// harness's graceful cell runner.
func (s *Server) execGuarded(sw harness.Sweep, kind Kind, p Params) (body []byte, err error) {
	type reply struct {
		body []byte
		err  error
	}
	ch := make(chan reply, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- reply{nil, fmt.Errorf("serve: job %s panicked: %v", kind, r)}
			}
		}()
		b, e := s.exec(sw, kind, p)
		ch <- reply{b, e}
	}()
	if s.cfg.JobBudget <= 0 {
		r := <-ch
		return r.body, r.err
	}
	t := time.NewTimer(s.cfg.JobBudget)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.body, r.err
	case <-t.C:
		return nil, fmt.Errorf("serve: job %s exceeded budget %v and was abandoned", kind, s.cfg.JobBudget)
	}
}
