package harness

import (
	"sync"
	"sync/atomic"

	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
)

// The sweep functions (GapTable, LeaderSweep, EstimateSweep, MajoritySweep,
// ConsensusGap, ...) are grids of independent cells: every cell derives all
// of its randomness from a seed that is a pure function of the sweep seed
// and the cell's parameters — never of execution order — and writes only
// its own result slot. Running cells concurrently therefore yields tables
// identical to sequential execution, whatever Sweep.Workers is set to.

// Sweep holds the options every harness sweep runs under. It is a plain
// value passed down the call, so sweeps running side by side never see
// each other's settings. The zero value runs cells sequentially under
// DefaultRoundBudget, with no metric roll-up and no span capture.
//
// Metrics and Spans are written from the sweep's calling goroutine once
// its cells have finished, so one registry or sink must not be shared by
// sweeps that run concurrently.
type Sweep struct {
	// Workers is how many cells run concurrently; < 1 runs them
	// sequentially. It changes wall-clock time only, never results.
	Workers int

	// Budget caps the rounds of open-ended protocol runs (leader
	// election, consensus) before they report NonTermination; < 1 means
	// DefaultRoundBudget.
	Budget int

	// Metrics, when non-nil, receives per-cell metric roll-ups. Every
	// cell records into a private registry (created just-in-time, so a
	// nil Metrics does no metric work at all), and after an error-free
	// sweep the cell registries merge into Metrics in ascending
	// cell-index order — never completion order. Counter and histogram
	// merges are sums and each cell's content is a pure function of its
	// parameters, so Metrics ends bit-identical at every Workers setting
	// (pinned by TestSweepMetricsParallelEqualSequential). The reduction
	// sweeps have no cells and count into Metrics directly.
	Metrics *obs.Registry

	// Spans, when non-nil, receives one span per cell after every
	// error-free sweep: begin/end events on Track 1 (the harness lane of
	// the repo's track convention), Node = cell index, positioned on the
	// cell-index clock (cell i spans [i, i+1)), with A = the cell's
	// engine_rounds_total. Spans are emitted in ascending cell-index
	// order, so the stream is bit-identical at every Workers setting
	// (pinned by TestSweepSpansParallelEqualSequential). The serve layer
	// points this at a job's flight recorder so a Perfetto load of the job
	// trace shows its sweep cells under the job span.
	Spans obs.Sink
}

var keySweepCell = obs.Intern("sweep_cell")

// budget resolves Budget: < 1 means DefaultRoundBudget.
func (s Sweep) budget() int {
	if s.Budget < 1 {
		return DefaultRoundBudget
	}
	return s.Budget
}

// workers resolves Workers for a grid of cells: at least 1, at most cells.
func (s Sweep) workers(cells int) int {
	w := s.Workers
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// finish hands the per-cell registries of an error-free sweep to Metrics
// and Spans, both in slice (= cell-index) order. Nil entries — unrun
// cells — are skipped.
func (s Sweep) finish(regs []*obs.Registry) {
	for i, r := range regs {
		if r == nil {
			continue
		}
		s.Metrics.Merge(r)
		if s.Spans != nil {
			rounds := r.Counter("engine_rounds_total").Value()
			s.Spans.Emit(obs.Event{Kind: obs.KindSpanBegin, Round: int32(i), Node: int32(i), Track: 1, A: rounds, Name: keySweepCell})
			s.Spans.Emit(obs.Event{Kind: obs.KindSpanEnd, Round: int32(i + 1), Node: int32(i), Track: 1, A: rounds, Name: keySweepCell})
		}
	}
}

// runPool calls fn(i) for every i in [0, cells) across workers goroutines
// and returns once all calls have.
func runPool(workers, cells int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cells {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCell runs fn(i, reg) for every cell index in [0, cells) across
// s.Workers goroutines. All cells run to completion; the lowest-index
// error is returned, which is the error a sequential sweep reports first.
// fn must derive all of its randomness from the cell index i (never from
// execution order) and write only its own result slot; under that
// contract results are identical at every Workers setting. reg is the
// cell's private metrics registry when s.Metrics or s.Spans is set, nil
// (and safe to use unconditionally) otherwise; after an error-free sweep
// every cell's registry goes to s.finish. Sweeps outside this package
// (the adversary-synthesis harness in internal/advsearch) run their
// cells through it too.
func (s Sweep) ForEachCell(cells int, fn func(i int, reg *obs.Registry) error) error {
	var regs []*obs.Registry
	if s.Metrics != nil || s.Spans != nil {
		regs = make([]*obs.Registry, cells)
	}
	cellReg := func(i int) *obs.Registry {
		if regs == nil {
			return nil
		}
		regs[i] = obs.NewRegistry()
		return regs[i]
	}
	if workers := s.workers(cells); workers == 1 {
		for i := 0; i < cells; i++ {
			if err := fn(i, cellReg(i)); err != nil {
				return err
			}
		}
	} else {
		errs := make([]error, cells)
		runPool(workers, cells, func(i int) { errs[i] = fn(i, cellReg(i)) })
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	s.finish(regs)
	return nil
}

// TrialSeeds derives trials independent seeds from root by rng splitting.
// Trial t's seed depends only on (root, t), so repeated-trial sweeps stay
// reproducible cell by cell no matter how cells are scheduled.
func TrialSeeds(root uint64, trials int) []uint64 {
	src := rng.New(root)
	out := make([]uint64, trials)
	for t := range out {
		out[t] = src.Split('t', uint64(t)).Uint64()
	}
	return out
}
