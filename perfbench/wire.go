package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/wire"
)

// The wire layer is measured inside the traced leader-msg run: once per
// pass, the leader protocol runs on a bounded-diameter adversary as a
// wire.Run coordinator with Wire.N wire.RunNode sessions as goroutines on
// 127.0.0.1, once clean and once with socket drop and corrupt faults.
// Each distributed run must equal its wire.RunInProcess twin (wire.Diff).
// It is not part of the untraced cases: its rounds are bound by loopback
// round trips, which the machine's drift moves far more than engine
// rounds.

type wireSizes struct {
	N            int           `json:"wire_n"`
	AdvD         int           `json:"wire_adv_d"`
	Drop         float64       `json:"wire_drop"`
	Corrupt      float64       `json:"wire_corrupt"`
	RoundTimeout time.Duration `json:"wire_round_timeout_ns"`
	MaxRetries   int           `json:"wire_max_retries"`
	RetryBase    time.Duration `json:"wire_retry_base_ns"`
	IdleTimeout  time.Duration `json:"wire_idle_timeout_ns"`
}

var wireFull = wireSizes{
	N: 8, AdvD: leaderTargetD, Drop: 0.05, Corrupt: 0.05,
	RoundTimeout: 2 * time.Second, MaxRetries: 8, RetryBase: 25 * time.Millisecond, IdleTimeout: 20 * time.Second,
}

// wireRingCap bounds each run's event ring; both sides of a wire.Diff
// use the same cap.
const wireRingCap = 1 << 15

// specs returns the clean and the faulted spec of pass seed s.
func (ws wireSizes) specs(s uint64) [2]wire.RunSpec {
	base := wire.RunSpec{
		Proto: "leader", N: ws.N, Seed: s, MaxRounds: leaderBudget,
		Adv: "bounded", AdvD: ws.AdvD, Extra: leaderExtra(ws.N),
	}
	faulted := base
	faulted.Fault = faults.Spec{Seed: derive(s, "wire/fault", 0), Drop: ws.Drop, Corrupt: ws.Corrupt}
	return [2]wire.RunSpec{base, faulted}
}

// wireRun is one distributed run's outcome.
type wireRun struct {
	art       *wire.RunArtifacts
	transport *obs.Registry
	elapsed   time.Duration
	err       error // listener or node failure
}

// runWire executes spec as a coordinator plus ws.N node goroutines and
// waits for every node to exit. adv and wrap, when non-nil, replace the
// spec's adversary and wrap the listener; they are the traced run's
// shims. The elapsed time covers the whole distributed run.
func runWire(ws wireSizes, spec wire.RunSpec, adv dynet.Adversary, wrap func(net.Listener) net.Listener) wireRun {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return wireRun{err: err}
	}
	addr := ln.Addr().String()
	var listener net.Listener = ln
	if wrap != nil {
		listener = wrap(ln)
	}
	tr, ring, reg := wire.NewArtifacts(wireRingCap)
	transport := obs.NewRegistry()
	nodeErrs := make([]error, ws.N)
	var wg sync.WaitGroup
	t0 := time.Now()
	for v := 0; v < ws.N; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			nodeErrs[v] = wire.RunNode(wire.NodeConfig{
				ID: v, Addr: addr, DialBase: 5 * time.Millisecond, IdleTimeout: ws.IdleTimeout,
			})
		}(v)
	}
	res, runErr := wire.Run(wire.Config{
		Spec: spec, Adv: adv, Listener: listener,
		Trace: tr, Obs: ring, Metrics: reg, Transport: transport,
		RoundTimeout: ws.RoundTimeout, MaxRetries: ws.MaxRetries, RetryBase: ws.RetryBase,
	})
	wg.Wait()
	out := wireRun{art: wire.CollectArtifacts(res, runErr, tr, ring, reg), transport: transport, elapsed: time.Since(t0)}
	ln.Close()
	for v, nerr := range nodeErrs {
		if nerr != nil {
			out.err = fmt.Errorf("node %d: %w", v, nerr)
			break
		}
	}
	return out
}

// checkWire is the wire correctness gate: the distributed run equals its
// in-process twin, every node exited cleanly, and a clean run elected
// N-1 at every node.
func checkWire(run wireRun, proc *wire.RunArtifacts, spec wire.RunSpec) error {
	if run.err != nil {
		return run.err
	}
	if err := wire.Diff(run.art, proc); err != nil {
		return err
	}
	if run.art.Err != nil {
		return run.art.Err
	}
	if !run.art.Res.Done {
		return fmt.Errorf("run did not terminate")
	}
	if spec.Fault.Zero() {
		for v, out := range run.art.Res.Outputs {
			if out != int64(spec.N-1) {
				return fmt.Errorf("node %d output %d", v, out)
			}
		}
	}
	return nil
}

// wireTrace accumulates the wire layer's figures over a traced run.
type wireTrace struct {
	distWall, procWall time.Duration // untraced wire.Run and RunInProcess
	rounds             int64         // untraced distributed rounds
	tracedRounds       int64
	adv                advClock
	sock               sockClock
	retries, deadline  int64
	reconnects         int64
	passes             int
	// first holds the exact fault counts of the first pass.
	first map[string]int64
}

// exactWireCounters are the transport counters that are a pure function
// of the spec: what the fault plan injected and the CRC rejects it
// caused.
var exactWireCounters = map[string]string{
	"crc_rejects":    "wire_crc_rejects_total",
	"fault_drops":    "wire_fault_drops_total",
	"fault_corrupts": "wire_fault_corrupts_total",
}

// wirePass runs the clean and the faulted spec of seed s, each once
// untraced as the reference, once as the in-process twin and once
// through the shims, and checks all three agree.
func wirePass(ws wireSizes, s uint64, wt *wireTrace) error {
	counts := map[string]int64{}
	for _, spec := range ws.specs(s) {
		t0 := time.Now()
		proc, err := wire.RunInProcess(spec, wireRingCap)
		procWall := time.Since(t0)
		if err != nil {
			return err
		}
		ref := runWire(ws, spec, nil, nil)
		if err := checkWire(ref, proc, spec); err != nil {
			return fmt.Errorf("fault=%v: %w", !spec.Fault.Zero(), err)
		}
		adv, err := spec.BuildAdversary()
		if err != nil {
			return err
		}
		traced := runWire(ws, spec, wrapAdversary(adv, &wt.adv), func(ln net.Listener) net.Listener {
			return countingListener{Listener: ln, c: &wt.sock}
		})
		if err := checkWire(traced, proc, spec); err != nil {
			return fmt.Errorf("traced, fault=%v: %w", !spec.Fault.Zero(), err)
		}
		for name, counter := range exactWireCounters {
			a, b := ref.transport.Counter(counter).Value(), traced.transport.Counter(counter).Value()
			if a != b {
				return fmt.Errorf("%s: untraced %d, traced %d", counter, a, b)
			}
			counts[name] += a
		}
		for _, run := range []wireRun{ref, traced} {
			wt.retries += run.transport.Counter("wire_retries_total").Value()
			wt.deadline += run.transport.Counter("wire_deadline_hits_total").Value()
			wt.reconnects += run.transport.Counter("wire_reconnects_total").Value()
		}
		wt.distWall += ref.elapsed
		wt.procWall += procWall
		wt.rounds += int64(ref.art.Res.Rounds)
		wt.tracedRounds += int64(traced.art.Res.Rounds)
	}
	if wt.first == nil {
		wt.first = counts
	}
	wt.passes++
	return nil
}

// fill writes the wire metrics, with times and timing-dependent counts
// averaged per pass.
func (wt *wireTrace) fill(m map[string]float64) {
	p := float64(wt.passes)
	if p == 0 {
		return
	}
	m["wire.overhead_x"] = ratio(wt.distWall.Seconds(), wt.procWall.Seconds())
	m["wire.rounds_per_s"] = ratio(float64(wt.rounds), wt.distWall.Seconds())
	m["wire.bytes_per_round"] = ratio(float64(wt.sock.bytes.Load()), float64(wt.tracedRounds))
	m["wire.write_s"] = time.Duration(wt.sock.write.Load()).Seconds() / p
	m["wire.retries"] = float64(wt.retries) / p
	m["wire.deadline_hits"] = float64(wt.deadline) / p
	m["wire.reconnects"] = float64(wt.reconnects) / p
	for name := range exactWireCounters {
		m["wire."+name] = float64(wt.first[name])
	}
}

// sockClock tallies the coordinator's socket traffic. Reads run on one
// reader goroutine per node, so every field is atomic.
type sockClock struct {
	bytes atomic.Int64 // read plus written
	write atomic.Int64 // nanoseconds inside Write
}

// countingListener is the traced run's shim around wire.Config.Listener:
// every accepted connection counts its bytes and its time in Write. A
// faulted run wraps it in a FaultListener, so it sees the frames the
// fault plan let through.
type countingListener struct {
	net.Listener
	c *sockClock
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *sockClock
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.c.write.Add(int64(time.Since(t0)))
	c.c.bytes.Add(int64(n))
	return n, err
}
