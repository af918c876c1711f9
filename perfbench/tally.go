package main

import (
	"runtime"
	"strings"
	"time"

	"dyndiam/internal/dynet"
	"dyndiam/internal/obs"
)

// tally accumulates the traced run's layer figures for the engine
// workloads. Every engine it runs reports into one metrics registry, so
// the exact counts come from the engine's own engine_*_total counters.
type tally struct {
	reg *obs.Registry

	runWall   time.Duration // inside Engine.Run
	floodWall time.Duration // inside Engine.RunFlood
	mc        machineClock
	adv       advClock // adversary calls made by Engine.Run
	floodAdv  advClock // adversary calls made by Engine.RunFlood
	term      time.Duration
	diam      time.Duration // inside harness.MeasureDynamicDiameter

	floodCalls int64
}

func newTally() *tally { return &tally{reg: obs.NewRegistry()} }

// run executes e through the shims: every machine, the adversary and the
// termination predicate are wrapped, and the engine's metrics go to the
// tally's registry.
func (t *tally) run(e *dynet.Engine, maxRounds int) (*dynet.Result, error) {
	ms, tms := wrapMachines(e.Machines)
	e.Machines = ms
	e.Adv = wrapAdversary(e.Adv, &t.adv)
	pred := e.Terminated
	if pred == nil {
		pred = dynet.AllDecided
	}
	e.Terminated = timedTerminated(pred, &t.term)
	e.Metrics = t.reg
	t0 := time.Now()
	res, err := e.Run(maxRounds)
	t.runWall += time.Since(t0)
	c := sumClocks(tms)
	t.mc.step += c.step
	t.mc.deliver += c.deliver
	t.mc.steps += c.steps
	t.mc.msgs += c.msgs
	return res, err
}

// runFlood executes e.RunFlood with only the adversary shimmed: the
// machines must stay BitFlooders, or the run leaves the fast path.
func (t *tally) runFlood(e *dynet.Engine, maxRounds int, stop dynet.FloodStop) (*dynet.Result, error) {
	e.Adv = wrapAdversary(e.Adv, &t.floodAdv)
	e.Metrics = t.reg
	t0 := time.Now()
	res, err := e.RunFlood(maxRounds, stop)
	t.floodWall += time.Since(t0)
	t.floodCalls++
	return res, err
}

// counter reads one of the registry's counters.
func (t *tally) counter(name string) int64 { return t.reg.Counter(name).Value() }

// faultsInjected sums every faults_*_total counter.
func (t *tally) faultsInjected() int64 {
	var n int64
	for _, p := range t.reg.Snapshot() {
		if p.Type == "counter" && strings.HasPrefix(p.Name, "faults_") {
			n += p.Value
		}
	}
	return n
}

// fill writes the engine-layer metrics, with times averaged per pass.
// Exact counts are taken from the caller's first pass, not from here.
func (t *tally) fill(m map[string]float64, passes float64) {
	p := passes
	m["dynet.self_s"] = selfTime(t.runWall, t.mc.step, t.mc.deliver, t.adv.topology, t.term).Seconds() / p
	m["dynet.runflood_self_s"] = selfTime(t.floodWall, t.floodAdv.diff, t.floodAdv.topology).Seconds() / p
	m["protocols.step_s"] = t.mc.step.Seconds() / p
	m["protocols.deliver_s"] = t.mc.deliver.Seconds() / p
	m["adversaries.topology_s"] = (t.adv.topology + t.floodAdv.topology).Seconds() / p
	m["adversaries.diff_s"] = (t.adv.diff + t.floodAdv.diff).Seconds() / p
	m["harness.diameter_s"] = t.diam.Seconds() / p
}

// memDelta measures the Go runtime's allocation and GC work over fn.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcs += o.gcs
	d.pause += o.pause
}

func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     uint64(b.NumGC - a.NumGC),
		pause:   time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// fillRuntime writes the runtime metrics of the untraced reference runs,
// which simulated rounds engine rounds in total over passes passes.
func fillRuntime(m map[string]float64, d memDelta, rounds int64, passes float64) {
	m["runtime.allocs_per_round"] = ratio(float64(d.mallocs), float64(rounds))
	m["runtime.bytes_per_round"] = ratio(float64(d.bytes), float64(rounds))
	m["runtime.gc_cycles"] = float64(d.gcs) / passes
	m["runtime.gc_pause_s"] = d.pause.Seconds() / passes
}
