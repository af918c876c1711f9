package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyndiam/internal/serve"
)

// serve-mix: dynserve (serve.New + Handler) behind a loopback HTTP
// listener, driven by a closed loop of nproc clients. A client submits
// one uncached job, waits for its result, then submits the same key
// again Hits times as cache hits. Every SharedEvery-th cycle all clients
// submit one fresh key at the same moment, so the server's singleflight
// collapses them into one execution.

type serveSizes struct {
	Clients     int       `json:"clients"`
	Workers     int       `json:"serve_workers"`
	QueueCap    int       `json:"queue_cap"`
	Hits        int       `json:"hits_per_key"`
	SharedEvery int       `json:"shared_every"`
	GapSizes    []int     `json:"gap_sizes"`
	RedN        int       `json:"reduction_n"`
	RedQs       []int     `json:"reduction_qs"`
	DegN        int       `json:"degradation_n"`
	DegTrials   int       `json:"degradation_trials"`
	DegRates    []float64 `json:"degradation_rates"`
	RelN        int       `json:"reliability_n_min"`
	RelSpan     int       `json:"reliability_n_span"`
	PollMicros  int       `json:"poll_us"`
	// KeysPerServer is how many uncached keys one server takes before
	// the loop moves to a fresh server.
	KeysPerServer int `json:"keys_per_server"`
}

var (
	serveFull = serveSizes{
		Clients: runtime.NumCPU(), Workers: runtime.NumCPU(), QueueCap: 64, Hits: 3, SharedEvery: 4,
		GapSizes: []int{24, 48}, RedN: 2, RedQs: []int{5}, DegN: 16, DegTrials: 2, DegRates: []float64{0, 0.1},
		RelN: 8, RelSpan: 8, PollMicros: 250, KeysPerServer: 256,
	}
	serveTiny = serveSizes{
		Clients: 2, Workers: 2, QueueCap: 16, Hits: 1, SharedEvery: 2,
		GapSizes: []int{8}, RedN: 1, RedQs: []int{3}, DegN: 6, DegTrials: 1, DegRates: []float64{0},
		RelN: 6, RelSpan: 2, PollMicros: 250, KeysPerServer: 8,
	}
)

// serveKinds is the rotation of uncached job kinds.
var serveKinds = []serve.Kind{serve.KindGapTable, serve.KindReduction, serve.KindCFloodDegradation, serve.KindLeaderReliability}

// jobGen produces a run's uncached jobs. Seeded kinds take a seed
// derived from the run seed; leader_reliability has no seed parameter, so
// its jobs walk (N, target D) pairs from a seed-derived offset, adding a
// trial once every pair is used. Distinct k give distinct keys.
//
// A gap_table seed whose diameter the harness cannot certify would fail
// the job, so gap_table seeds come from certifiedSeed. The client draws
// them before it starts the cycle's clock.
type jobGen struct {
	sz   serveSizes
	seed uint64
}

// job returns the k-th uncached job; two clients asking for the same k
// get the same job.
func (g *jobGen) job(k int) serve.SubmitRequest {
	sz := g.sz
	kind := serveKinds[k%len(serveKinds)]
	j := k / len(serveKinds)
	s := derive(g.seed, "serve/job", k)
	switch kind {
	case serve.KindGapTable:
		gapSeed, _ := certifiedSeed(g.seed, "serve/gap", j, sz.GapSizes, gapTargetD)
		return serve.SubmitRequest{Kind: kind, Params: serve.Params{Sizes: sz.GapSizes, TargetDiam: gapTargetD, Seed: gapSeed}}
	case serve.KindReduction:
		return serve.SubmitRequest{Kind: kind, Params: serve.Params{N: sz.RedN, Qs: sz.RedQs, Seed: s}}
	case serve.KindCFloodDegradation:
		return serve.SubmitRequest{Kind: kind, Params: serve.Params{
			N: sz.DegN, TargetDiam: 4, Trials: sz.DegTrials, Seed: s, Dim: "drop", Rates: sz.DegRates,
		}}
	}
	// Past about 2N the target diameter only deepens an already path-like
	// random tree, so (N, target D) pairs in that range are distinct keys
	// of nearly equal cost.
	span := sz.RelSpan * relDiams
	idx := (j + int(derive(g.seed, "serve/reliability", 0)%uint64(span))) % span
	return serve.SubmitRequest{Kind: kind, Params: serve.Params{
		N:          sz.RelN + idx%sz.RelSpan,
		TargetDiam: relMinDiam + idx/sz.RelSpan,
		Trials:     1 + j/span,
	}}
}

const (
	relMinDiam = 32
	relDiams   = 480 // target diameters relMinDiam .. relMinDiam+relDiams-1, within the service's 512
)

// rig is one running server with its listener and HTTP client.
type rig struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func newRig(sz serveSizes) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: sz.Workers, QueueCap: sz.QueueCap})
	r := &rig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sz.Clients}, Timeout: 60 * time.Second},
		served: make(chan error, 1),
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the HTTP server, waits for its serve loop, and stops the
// job workers. It is called only when no request is in flight, so it
// closes every connection at once: a graceful Shutdown would wait up to
// five seconds for any connection the client dialled but never used.
func (r *rig) close() error {
	err := r.hs.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	r.srv.Close()
	return err
}

func (r *rig) get(path string) (int, []byte, error) {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// submit POSTs one job and returns the status code and the job view.
func (r *rig) submit(req serve.SubmitRequest) (int, serve.JobView, error) {
	var view serve.JobView
	body, err := json.Marshal(req)
	if err != nil {
		return 0, view, err
	}
	resp, err := r.client.Post(r.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, view, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, view, err
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &view)
	}
	return resp.StatusCode, view, err
}

// result polls the job's result until it is no longer pending.
func (r *rig) result(key string, poll time.Duration) ([]byte, error) {
	for {
		code, body, err := r.get("/jobs/" + key + "/result")
		if err != nil {
			return nil, err
		}
		switch code {
		case http.StatusOK:
			return body, nil
		case http.StatusAccepted:
			time.Sleep(poll)
		default:
			return nil, fmt.Errorf("result of %.12s: HTTP %d: %s", key, code, strings.TrimSpace(string(body)))
		}
	}
}

// sample is one submit-to-result cycle.
type sample struct {
	ms   float64
	at   time.Duration // loop time when the result arrived; see serveLoop
	hit  bool
	key  string // kept only in a traced run, which joins samples to spans
	fail bool
}

// cycle submits req, waits for its result, and checks the body against
// every earlier fetch of the same key; bodies holds each key's digest.
// It returns the sample with the job's key.
func (r *rig) cycle(req serve.SubmitRequest, poll time.Duration, bodies *sync.Map) (sample, error) {
	t0 := time.Now()
	code, view, err := r.submit(req)
	if err != nil {
		return sample{fail: true}, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return sample{fail: true}, fmt.Errorf("submit %s: HTTP %d", req.Kind, code)
	}
	body, err := r.result(view.Key, poll)
	s := sample{ms: ms(time.Since(t0)), hit: code == http.StatusOK && view.Status == serve.StatusDone, key: view.Key}
	if err != nil {
		s.fail = true
		return s, err
	}
	if prev, loaded := bodies.LoadOrStore(view.Key, sha256.Sum256(body)); loaded && prev.([32]byte) != sha256.Sum256(body) {
		s.fail = true
		return s, fmt.Errorf("key %.12s: fetches returned different bodies", view.Key)
	}
	return s, nil
}

// generation is one server's share of the loop. Once KeysPerServer
// uncached keys have been submitted to a server, the loop moves on to a
// fresh one, so a server's cache and flight recordings hold a fixed
// number of keys and the process's peak memory does not grow with the
// number of jobs a run completes.
type generation struct {
	r      *rig
	firstK int      // the first uncached key index submitted to r
	bodies sync.Map // key -> digest of its result body
	mu     sync.Mutex
	keys   map[string]bool // keys submitted to r
}

func newGeneration(r *rig, firstK int, keys map[string]bool) *generation {
	g := &generation{r: r, firstK: firstK, keys: map[string]bool{}}
	for k := range keys {
		g.keys[k] = true
	}
	return g
}

func (g *generation) addKey(key string) {
	g.mu.Lock()
	g.keys[key] = true
	g.mu.Unlock()
}

// serveTotals are the server counters summed over a run's generations,
// and, in a traced run, every executed job's spans.
type serveTotals struct {
	executions, rejected, hits, requests float64
	spans                                map[string]jobSpans
}

// retire checks a generation's server counters, reads its spans when
// traced, and stops its server. The server must execute each distinct
// key exactly once and reject nothing.
func (g *generation) retire(trace bool, tot *serveTotals, rep *report) {
	counters, err := g.r.scrape()
	if err != nil {
		rep.fail("serve-mix: %v", err)
	} else {
		if got, want := counters["serve_harness_executions_total"], float64(len(g.keys)); got != want {
			rep.fail("serve-mix: %v executions for %v distinct keys", got, want)
		}
		if n := counters["serve_queue_rejected_total"]; n != 0 {
			rep.fail("serve-mix: %v submissions rejected", n)
		}
		tot.executions += counters["serve_harness_executions_total"]
		tot.rejected += counters["serve_queue_rejected_total"]
		tot.hits += counters["serve_cache_hits_total"]
		tot.requests += counters["serve_requests_total"]
	}
	if trace {
		for k, sp := range g.r.spans(g.keys, rep) {
			tot.spans[k] = sp
		}
	}
	if err := g.r.close(); err != nil {
		rep.fail("serve-mix: closing a server: %v", err)
	}
}

// decision is what the last client at a barrier decides for all.
type decision struct {
	stop bool
	k    int
	g    *generation
}

// barrier lines the clients up for shared submissions. The last client
// to arrive decides, once for all, whether to stop, which key to use
// and which server to use from now on.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	d       decision
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(decide func() decision) decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.d = decide()
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.d
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.d
}

// serveLoop is the closed loop: Clients goroutines, each running cycles
// of one uncached submit plus Hits cache hits, until the budget is spent.
// All clients stop together at a shared-submission barrier, where the
// loop also moves to a fresh server when the current one has its
// KeysPerServer keys. Changing servers happens while every client waits
// at the barrier; that time is taken off the loop's clock, so samples
// carry loop time (at) and the returned elapsed time is loop time too.
// Each fresh server is one more repetition of the set-up, timed into
// setup_s, so the median set-up time samples the whole run.
// first is the set-up's server with the keys its warm-up executed.
func serveLoop(sz serveSizes, jobs *jobGen, first *rig, warmKeys map[string]bool, budget time.Duration, trace bool, rep *report) ([]sample, time.Duration, serveTotals) {
	var next atomic.Int64
	var paused atomic.Int64 // nanoseconds spent changing servers
	tot := serveTotals{spans: map[string]jobSpans{}}
	bar := newBarrier(sz.Clients)
	poll := time.Duration(sz.PollMicros) * time.Microsecond
	out := make([][]sample, sz.Clients)
	errs := make([][]error, sz.Clients)
	cur := newGeneration(first, 0, warmKeys)
	start := time.Now()
	loopTime := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	decide := func() decision {
		if loopTime() >= budget {
			return decision{stop: true}
		}
		if k := int(next.Load()); k-cur.firstK >= sz.KeysPerServer {
			t0 := time.Now()
			cur.retire(trace, &tot, rep)
			t1 := time.Now()
			r, warmKeys, err := startServer(sz)
			if err != nil {
				rep.fail("serve-mix: starting a server: %v", err)
				cur = nil
				return decision{stop: true}
			}
			rep.setup = append(rep.setup, time.Since(t1).Seconds())
			cur = newGeneration(r, k, warmKeys)
			paused.Add(int64(time.Since(t0)))
		}
		return decision{k: int(next.Add(1) - 1), g: cur}
	}
	var wg sync.WaitGroup
	for c := 0; c < sz.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := cur
			for i := 0; ; i++ {
				var k int
				if i%sz.SharedEvery == sz.SharedEvery-1 {
					d := bar.wait(decide)
					if d.stop {
						return
					}
					k, g = d.k, d.g
				} else {
					k = int(next.Add(1) - 1)
				}
				req := jobs.job(k)
				for h := 0; h <= sz.Hits; h++ {
					s, err := g.r.cycle(req, poll, &g.bodies)
					s.at = loopTime()
					if h > 0 && !s.hit && err == nil {
						s.fail, err = true, fmt.Errorf("re-submit %d of %.12s was not a cache hit", h, s.key)
					}
					if s.key != "" {
						g.addKey(s.key)
					}
					if !trace {
						s.key = ""
					}
					out[c] = append(out[c], s)
					if err != nil {
						errs[c] = append(errs[c], err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := loopTime()
	if cur != nil {
		cur.retire(trace, &tot, rep)
	}
	var all []sample
	for c := range out {
		for _, s := range out[c] {
			rep.attempted++
			all = append(all, s)
		}
		for _, err := range errs[c] {
			rep.fail("serve-mix: %v", err)
		}
	}
	return all, elapsed, tot
}

// rateWindow is the width of the windows serve-mix counts completed jobs
// in; work_per_s is the median window, so a burst of outside noise moves
// one window, not the figure.
const rateWindow = time.Second

// windowRates counts the successful cycles completed in each whole
// window of loop time and returns the per-second rate of each. A loop
// shorter than one window is one window of its own length.
func windowRates(samples []sample, elapsed time.Duration) []float64 {
	window := rateWindow
	if elapsed < window {
		window = elapsed
	}
	if window <= 0 {
		return nil
	}
	n := int(elapsed / window)
	counts := make([]float64, n)
	for _, s := range samples {
		if w := int(s.at / window); !s.fail && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}

// scrape reads the server's counters from GET /metrics.
func (r *rig) scrape() (map[string]float64, error) {
	code, body, err := r.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// warmUp submits one small job of each kind plus one cache hit.
func warmUp(r *rig, gen *jobGen) (map[string]bool, error) {
	bodies := &sync.Map{}
	keys := map[string]bool{}
	for k := range serveKinds {
		req := gen.job(k)
		for h := 0; h < 2; h++ {
			s, err := r.cycle(req, 250*time.Microsecond, bodies)
			if err != nil {
				return nil, err
			}
			keys[s.key] = true
		}
	}
	return keys, nil
}

// startServer is serve-mix's set-up: a listener, a server and a
// client, warmed up with one small job of each kind. It returns the
// server and the keys the warm-up executed.
func startServer(sz serveSizes) (*rig, map[string]bool, error) {
	r, err := newRig(sz)
	if err != nil {
		return nil, nil, err
	}
	keys, err := warmUp(r, &jobGen{sz: serveTiny, seed: warmSeed})
	if err != nil {
		r.close()
		return nil, nil, err
	}
	return r, keys, nil
}

func runServe(o opts) (*report, error) {
	sz := serveFull
	if o.tiny {
		sz = serveTiny
	}
	rep := &report{parts: map[string]interface{}{"sizes": sz, "poll": "GET /jobs/{id}/result until 200"}}
	gen := &jobGen{sz: sz, seed: o.seed}
	var r *rig
	var warmKeys map[string]bool
	var err error
	rep.setup, err = setupReps(setupBefore, func(last bool) error {
		rg, wk, err := startServer(sz)
		if err != nil {
			return err
		}
		if !last {
			return rg.close()
		}
		r, warmKeys = rg, wk
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples, elapsed, tot := serveLoop(sz, gen, r, warmKeys, o.budget(), o.trace, rep)
	var cold, hit []float64
	for _, s := range samples {
		if s.fail {
			continue
		}
		rep.lat = append(rep.lat, s.ms)
		if s.hit {
			hit = append(hit, s.ms)
		} else {
			cold = append(cold, s.ms)
		}
	}
	rep.rates = windowRates(samples, elapsed)

	m := map[string]float64{
		"serve.executions": tot.executions,
		"serve.rejected":   tot.rejected,
		"serve.hit_ratio":  ratio(tot.hits, tot.requests),
	}
	if o.trace {
		var queue, exec, residual []float64
		for _, s := range samples {
			if s.fail {
				continue
			}
			sp, ok := tot.spans[s.key]
			if !ok || s.hit {
				residual = append(residual, s.ms)
				continue
			}
			queue = append(queue, sp.queue)
			exec = append(exec, sp.exec)
			residual = append(residual, max(0, s.ms-sp.queue-sp.exec))
		}
		m["serve.queue_wait_ms"] = percentile(queue, 50)
		m["serve.execute_ms"] = percentile(exec, 50)
		m["serve.http_ms"] = percentile(residual, 50)
		m["serve.jobs_per_s"] = float64(len(rep.lat)) / elapsed.Seconds()
		for name, xs := range map[string][]float64{"cold": cold, "hit": hit} {
			for _, p := range []int{50, 90, 99} {
				m[fmt.Sprintf("serve.%s_p%d_ms", name, p)] = percentile(xs, float64(p))
			}
		}
		m["bench.trace_overhead_x"] = 1 // spans are read while the loop's clock is stopped
	}
	rep.layers = m
	return rep, nil
}

// jobSpans are one job's lifecycle spans from its flight recording.
type jobSpans struct{ queue, exec float64 }

// spans reads each executed job's queue_wait and execute spans from
// GET /debug/jobs/{id}.
func (r *rig) spans(keys map[string]bool, rep *report) map[string]jobSpans {
	out := map[string]jobSpans{}
	for key := range keys {
		code, body, err := r.get("/debug/jobs/" + key)
		if err != nil || code != http.StatusOK {
			rep.fail("serve-mix: /debug/jobs/%.12s: HTTP %d %v", key, code, err)
			continue
		}
		var rec struct {
			Events []struct {
				Kind string `json:"kind"`
				T    int32  `json:"t"`
				Name string `json:"name"`
			} `json:"events"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			rep.fail("serve-mix: /debug/jobs/%.12s: %v", key, err)
			continue
		}
		begin := map[string]int32{}
		var js jobSpans
		for _, ev := range rec.Events {
			switch {
			case strings.HasSuffix(ev.Kind, "begin"):
				begin[ev.Name] = ev.T
			case strings.HasSuffix(ev.Kind, "end") && ev.Name == "queue_wait":
				js.queue = float64(ev.T - begin[ev.Name])
			case strings.HasSuffix(ev.Kind, "end") && ev.Name == "execute":
				js.exec = float64(ev.T - begin[ev.Name])
			}
		}
		out[key] = js
	}
	return out
}
