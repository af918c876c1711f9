package main

import (
	"time"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// The timing shims of the traced run. Each wraps one public interface of
// the program from outside and adds the time spent inside it to a
// counter, so a layer's self time is its caller's wall time minus what
// the shims saw. None of them is used in the untraced run.

// machineClock is one wrapped machine's private tally. The engine steps
// and delivers each machine from one goroutine at a time, so parallel
// stepping never touches one clock from two goroutines.
type machineClock struct {
	step, deliver time.Duration
	steps, msgs   int64
}

// timedMachine times Step and Deliver. It deliberately does not forward
// the flood fast path's BitFlooder methods, so it must never wrap
// machines that RunFlood should run on the fast path.
type timedMachine struct {
	m dynet.Machine
	c machineClock
}

func (t *timedMachine) Step(r int) (dynet.Action, dynet.Message) {
	t0 := time.Now() //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	a, msg := t.m.Step(r)
	t.c.step += time.Since(t0) //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	t.c.steps++
	return a, msg
}

func (t *timedMachine) Deliver(r int, msgs []dynet.Message) {
	t0 := time.Now() //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	t.m.Deliver(r, msgs)
	t.c.deliver += time.Since(t0) //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	t.c.msgs += int64(len(msgs))
}

func (t *timedMachine) Output() (int64, bool) { return t.m.Output() }

// wrapMachines returns the shimmed machines and their clocks.
func wrapMachines(ms []dynet.Machine) ([]dynet.Machine, []*timedMachine) {
	out := make([]dynet.Machine, len(ms))
	tms := make([]*timedMachine, len(ms))
	for i, m := range ms {
		tms[i] = &timedMachine{m: m}
		out[i] = tms[i]
	}
	return out, tms
}

// sumClocks folds the machines' tallies into one.
func sumClocks(tms []*timedMachine) machineClock {
	var c machineClock
	for _, t := range tms {
		c.step += t.c.step
		c.deliver += t.c.deliver
		c.steps += t.c.steps
		c.msgs += t.c.msgs
	}
	return c
}

// advClock tallies adversary time. The engine calls the adversary from
// its coordinating goroutine only.
type advClock struct {
	topology, diff time.Duration
	diffOps        int64
}

type timedAdversary struct {
	a dynet.Adversary
	c *advClock
}

func (t timedAdversary) Topology(r int, actions []dynet.Action) *graph.Graph {
	t0 := time.Now() //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	g := t.a.Topology(r, actions)
	t.c.topology += time.Since(t0) //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	return g
}

// timedDelta keeps the DeltaAdversary interface visible, so the flood
// fast path still feeds its kernel edge diffs through the shim.
type timedDelta struct {
	timedAdversary
	d dynet.DeltaAdversary
}

func (t timedDelta) Diff(r int, actions []dynet.Action, d *dynet.EdgeDiff) {
	t0 := time.Now() //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	before := d.Len()
	t.d.Diff(r, actions, d)
	t.c.diff += time.Since(t0) //lint:allow puritytaint timing shim of the traced run; the clock reading never reaches the wrapped call
	t.c.diffOps += int64(d.Len() - before)
}

// wrapAdversary shims a, preserving DeltaAdversary when a has it.
func wrapAdversary(a dynet.Adversary, c *advClock) dynet.Adversary {
	ta := timedAdversary{a: a, c: c}
	if d, ok := a.(dynet.DeltaAdversary); ok {
		return timedDelta{timedAdversary: ta, d: d}
	}
	return ta
}

// timedTerminated wraps an Engine.Terminated predicate.
func timedTerminated(pred func([]dynet.Machine) bool, total *time.Duration) func([]dynet.Machine) bool {
	return func(ms []dynet.Machine) bool {
		t0 := time.Now()
		ok := pred(ms)
		*total += time.Since(t0)
		return ok
	}
}
