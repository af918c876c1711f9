package dynet_test

// Differential tests for the flood fast path: on seeded random dynamic
// graphs, TryFloodFast must produce bit-identical results, machine
// states, and metrics to the message-passing Engine.Run for CFLOOD —
// across stop modes, known and unknown diameter bounds, full and
// delta-encoded adversaries, and round caps that cut the run short.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/rng"
)

// randomAdversary returns a fresh adversary producing the same topology
// sequence for every instance built from the same parameters — the
// property that lets the message path and the fast path run against
// independent instances.
func randomAdversary(n, extra int, seed uint64) dynet.Adversary {
	src := rng.New(seed)
	return dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.RandomConnected(n, extra, src.Split(uint64(r)))
	})
}

func newFloodMachines(n int, seed uint64, extraD int64) []dynet.Machine {
	inputs := make([]int64, n)
	inputs[0] = 42
	extra := map[string]int64{}
	if extraD > 0 {
		extra[flood.ExtraD] = extraD
	}
	return dynet.NewMachines(flood.CFlood{}, n, inputs, seed, extra)
}

type floodCase struct {
	n, extra  int
	seed      uint64
	extraD    int64 // 0 = unknown D (pessimistic N-1)
	maxRounds int
	stopNode  int // ignored when stopAll
	stopAll   bool
	delta     bool // drive the fast path through DeltaFrom
	metrics   bool
	connCheck bool
	observed  bool // attach an Obs ring to both engines
	stride    int  // fast path's ObsRoundStride (0 = every round)
	// adv, when set, builds each path's adversary instead of
	// randomAdversary(n, extra, seed).
	adv func() dynet.Adversary
}

func (tc floodCase) adversary() dynet.Adversary {
	if tc.adv != nil {
		return tc.adv()
	}
	return randomAdversary(tc.n, tc.extra, tc.seed)
}

func (tc floodCase) stop() dynet.FloodStop {
	if tc.stopAll {
		return dynet.StopAll()
	}
	return dynet.StopNode(tc.stopNode)
}

func (tc floodCase) terminated() func([]dynet.Machine) bool {
	if tc.stopAll {
		return dynet.AllDecided
	}
	return dynet.NodeDecided(tc.stopNode)
}

// runBothPaths executes one case on the message path and the fast path
// and cross-checks everything observable. It returns the fast result, or
// the error both paths failed with.
func runBothPaths(t *testing.T, tc floodCase) (*dynet.Result, error) {
	t.Helper()

	msMsg := newFloodMachines(tc.n, tc.seed, tc.extraD)
	var regMsg, regFast *obs.Registry
	if tc.metrics {
		regMsg, regFast = obs.NewRegistry(), obs.NewRegistry()
	}
	eMsg := &dynet.Engine{
		Machines:          msMsg,
		Adv:               tc.adversary(),
		Metrics:           regMsg,
		CheckConnectivity: tc.connCheck,
	}
	if tc.observed {
		eMsg.Obs = obs.NewRing(1 << 12)
	}
	eMsg.Terminated = tc.terminated()
	wantRes, wantErr := eMsg.Run(tc.maxRounds)

	msFast := newFloodMachines(tc.n, tc.seed, tc.extraD)
	adv := tc.adversary()
	if tc.delta {
		adv = dynet.DeltaFrom(adv)
	}
	eFast := &dynet.Engine{
		Machines:          msFast,
		Adv:               adv,
		Metrics:           regFast,
		CheckConnectivity: tc.connCheck,
		ObsRoundStride:    tc.stride,
	}
	var fastRing *obs.Ring
	if tc.observed {
		fastRing = obs.NewRing(1 << 12)
		eFast.Obs = fastRing
	}
	gotRes, ok, gotErr := eFast.TryFloodFast(tc.maxRounds, tc.stop())
	if !ok {
		t.Fatalf("%+v: fast path declined", tc)
	}
	if tc.observed && fastRing.Len() == 0 {
		t.Fatalf("%+v: observed fast path emitted no events", tc)
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%+v: error mismatch: message %v, fast %v", tc, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%+v: error text mismatch: %q vs %q", tc, wantErr, gotErr)
		}
		return nil, gotErr
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("%+v: result mismatch:\nmessage %+v\nfast    %+v", tc, wantRes, gotRes)
	}
	for v := range msMsg {
		if flood.Informed(msMsg[v]) != flood.Informed(msFast[v]) {
			t.Fatalf("%+v: node %d informed mismatch: message %v, fast %v",
				tc, v, flood.Informed(msMsg[v]), flood.Informed(msFast[v]))
		}
		wo, wok := msMsg[v].Output()
		go_, gok := msFast[v].Output()
		if wo != go_ || wok != gok {
			t.Fatalf("%+v: node %d output mismatch: message (%d,%v), fast (%d,%v)",
				tc, v, wo, wok, go_, gok)
		}
	}
	if tc.metrics {
		want := regMsg.Snapshot()
		got := regFast.Snapshot()
		// The fast path adds its own engine_floodfast_* counters on top
		// of the message path's metric set; everything else must match
		// point for point.
		filtered := got[:0]
		for _, p := range got {
			if !strings.HasPrefix(p.Name, "engine_floodfast_") {
				filtered = append(filtered, p)
			}
		}
		if !reflect.DeepEqual(want, []obs.MetricPoint(filtered)) {
			t.Fatalf("%+v: metrics mismatch:\nmessage %+v\nfast    %+v", tc, want, filtered)
		}
	}
	return gotRes, nil
}

func TestFloodFastMatchesMessagePath(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64, 65, 257, 1000} {
		for trial := 0; trial < 3; trial++ {
			seed := uint64(n*1000 + trial)
			extra := trial
			for si := 0; si < 3; si++ {
				stopNode, stopAll := 0, false
				switch si {
				case 1:
					stopNode = n - 1
				case 2:
					stopAll = true
				}
				// Unknown D (pessimistic N-1), generous cap. Observed:
				// attaching an Obs must neither decline the fast path nor
				// perturb results or metrics.
				runBothPaths(t, floodCase{
					n: n, extra: extra, seed: seed, maxRounds: 2 * n,
					stopNode: stopNode, stopAll: stopAll, metrics: true, delta: si == 1,
					observed: true, stride: si,
				})
				// Known small D: the source may confirm before full
				// dissemination — both paths must agree on that too.
				runBothPaths(t, floodCase{
					n: n, extra: extra, seed: seed, extraD: 2, maxRounds: 2 * n,
					stopNode: stopNode, stopAll: stopAll, delta: si == 2, connCheck: si == 0,
				})
				// Delta encoding under connectivity checking: the snapshot
				// must stay patched, and checked, after saturation.
				runBothPaths(t, floodCase{
					n: n, extra: extra, seed: seed, extraD: int64(min(n, 48)), maxRounds: 2 * n,
					stopNode: stopNode, stopAll: stopAll, delta: true, connCheck: true,
					metrics: si == 0,
				})
			}
			// Round cap cuts the run short: Done=false shape.
			runBothPaths(t, floodCase{
				n: n, extra: extra, seed: seed, maxRounds: 1,
				stopNode: n - 1, metrics: true,
			})
		}
	}
}

func TestFloodFastBudgetError(t *testing.T) {
	// A token too wide for the bit budget must fail identically on both
	// paths: same round, same node, same message.
	n := 8
	inputs := make([]int64, n)
	inputs[0] = 1 << 40
	mk := func() []dynet.Machine {
		return dynet.NewMachines(flood.CFlood{}, n, inputs, 1, nil)
	}
	msMsg := mk()
	eMsg := &dynet.Engine{Machines: msMsg, Adv: randomAdversary(n, 1, 9),
		Budget: 16, Terminated: dynet.NodeDecided(0)}
	_, wantErr := eMsg.Run(4 * n)
	if wantErr == nil {
		t.Fatal("message path accepted an over-budget token")
	}
	eFast := &dynet.Engine{Machines: mk(), Adv: randomAdversary(n, 1, 9),
		Budget: 16}
	res, ok, gotErr := eFast.TryFloodFast(4*n, dynet.StopNode(0))
	if !ok {
		t.Fatal("fast path declined")
	}
	if res != nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("budget error mismatch: message %q, fast (%v, %q)", wantErr, res, gotErr)
	}
}

func TestFloodFastDeclines(t *testing.T) {
	n := 6
	mk := func() *dynet.Engine {
		return &dynet.Engine{
			Machines: newFloodMachines(n, 5, 0),
			Adv:      randomAdversary(n, 1, 5),
		}
	}
	cases := []struct {
		name string
		mut  func(e *dynet.Engine) (maxRounds int, stop dynet.FloodStop)
	}{
		{"trace", func(e *dynet.Engine) (int, dynet.FloodStop) {
			e.Trace = &dynet.Trace{}
			return 2 * n, dynet.StopNode(0)
		}},
		{"zero rounds", func(e *dynet.Engine) (int, dynet.FloodStop) {
			return 0, dynet.StopNode(0)
		}},
		{"stop node out of range", func(e *dynet.Engine) (int, dynet.FloodStop) {
			return 2 * n, dynet.StopNode(n)
		}},
		{"non-flooder machine", func(e *dynet.Engine) (int, dynet.FloodStop) {
			e.Machines = dynet.NewMachines(flood.PFlood{}, n, make([]int64, n), 5, nil)
			return 2 * n, dynet.StopNode(0)
		}},
	}
	for _, tc := range cases {
		e := mk()
		maxRounds, stop := tc.mut(e)
		if _, ok, err := e.TryFloodFast(maxRounds, stop); ok || err != nil {
			t.Fatalf("%s: fast path did not decline cleanly (ok=%v err=%v)", tc.name, ok, err)
		}
	}
	// RunFlood must still complete correctly through the fallback.
	e := mk()
	e.Trace = &dynet.Trace{}
	res, err := e.RunFlood(2*n, dynet.StopNode(0))
	if err != nil || !res.Done {
		t.Fatalf("fallback RunFlood: res=%+v err=%v", res, err)
	}
}

func TestRunFloodUsesFastPath(t *testing.T) {
	n := 32
	reg := obs.NewRegistry()
	e := &dynet.Engine{
		Machines: newFloodMachines(n, 3, 0),
		Adv:      randomAdversary(n, 2, 3),
		Metrics:  reg,
	}
	res, err := e.RunFlood(2*n, dynet.StopAll())
	if err != nil || !res.Done {
		t.Fatalf("RunFlood: res=%+v err=%v", res, err)
	}
	if got := reg.Counter("engine_floodfast_runs_total").Value(); got != 1 {
		t.Fatalf("engine_floodfast_runs_total = %d, want 1 (fast path not taken)", got)
	}
}

// TestFloodFastObservedAggregates pins the round-aggregated event stream's
// internal consistency at stride 1: the sampled round totals must add up to
// exactly the run's Result, the frontier must grow monotonically to the
// span's reported informed count, and diff_ops samples must reconcile with
// the engine_floodfast_diff_ops_total counter.
func TestFloodFastObservedAggregates(t *testing.T) {
	n := 64
	for _, delta := range []bool{false, true} {
		reg := obs.NewRegistry()
		ring := obs.NewRing(1 << 12)
		adv := randomAdversary(n, 2, 7)
		if delta {
			adv = dynet.DeltaFrom(adv)
		}
		e := &dynet.Engine{
			Machines: newFloodMachines(n, 7, 0),
			Adv:      adv,
			Metrics:  reg,
			Obs:      ring,
		}
		res, err := e.RunFlood(2*n, dynet.StopAll())
		if err != nil || !res.Done {
			t.Fatalf("delta=%v: res=%+v err=%v", delta, res, err)
		}
		if got := reg.Counter("engine_floodfast_runs_total").Value(); got != 1 {
			t.Fatalf("delta=%v: engine_floodfast_runs_total = %d, want 1 (observed run fell off the fast path)", delta, got)
		}

		events := ring.Events()
		if ring.Dropped() != 0 {
			t.Fatalf("delta=%v: ring dropped %d events", delta, ring.Dropped())
		}
		keyFloodFast := obs.Intern("flood_fast")
		keyDiffOps := obs.Intern("diff_ops")
		if ev := events[0]; ev.Kind != obs.KindSpanBegin || ev.Name != keyFloodFast || ev.A != int64(n) {
			t.Fatalf("delta=%v: first event is not the flood_fast span begin: %+v", delta, ev)
		}
		last := events[len(events)-1]
		if last.Kind != obs.KindSpanEnd || last.Name != keyFloodFast || last.Round != int32(res.Rounds) {
			t.Fatalf("delta=%v: last event is not the flood_fast span end at round %d: %+v", delta, res.Rounds, last)
		}

		var senders, bits, diffOps int64
		var roundEnds int
		prevInformed := int64(0)
		var lastFrontier int64
		for _, ev := range events {
			switch ev.Kind {
			case obs.KindRoundEnd:
				roundEnds++
				senders += ev.A
				bits += ev.B
			case obs.KindFrontier:
				if ev.B < prevInformed {
					t.Fatalf("delta=%v: frontier shrank: %+v after %d", delta, ev, prevInformed)
				}
				if ev.A > ev.B {
					t.Fatalf("delta=%v: newly > informed: %+v", delta, ev)
				}
				prevInformed = ev.B
				lastFrontier = ev.B
			case obs.KindCustom:
				if ev.Name == keyDiffOps {
					if !delta {
						t.Fatalf("diff_ops event from a non-delta adversary: %+v", ev)
					}
					diffOps += ev.A
				}
			}
		}
		if roundEnds != res.Rounds {
			t.Fatalf("delta=%v: %d round_end samples at stride 1, want %d", delta, roundEnds, res.Rounds)
		}
		if senders != int64(res.Messages) || bits != int64(res.Bits) {
			t.Fatalf("delta=%v: aggregates (%d senders, %d bits) != result (%d, %d)",
				delta, senders, bits, res.Messages, res.Bits)
		}
		if lastFrontier != int64(n) || last.A != lastFrontier {
			t.Fatalf("delta=%v: final frontier %d, span end arg %d, want both %d", delta, lastFrontier, last.A, n)
		}
		if delta {
			if want := reg.Counter("engine_floodfast_diff_ops_total").Value(); diffOps != want {
				t.Fatalf("diff_ops samples sum to %d, counter says %d", diffOps, want)
			}
		}
	}
}

// TestFloodFastObservedStride checks the sampling contract: with stride k
// only rounds r ≡ 0 (mod k) emit, except that the final round always does.
func TestFloodFastObservedStride(t *testing.T) {
	n, stride := 128, 5
	ring := obs.NewRing(1 << 12)
	e := &dynet.Engine{
		Machines:       newFloodMachines(n, 11, 0),
		Adv:            randomAdversary(n, 0, 11),
		Obs:            ring,
		ObsRoundStride: stride,
	}
	res, err := e.RunFlood(2*n, dynet.StopAll())
	if err != nil || !res.Done {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	sampled := map[int32]bool{}
	for _, ev := range ring.Events() {
		if ev.Kind != obs.KindRoundEnd {
			continue
		}
		sampled[ev.Round] = true
		if ev.Round%int32(stride) != 0 && ev.Round != int32(res.Rounds) {
			t.Fatalf("off-stride round %d sampled (stride %d, final %d)", ev.Round, stride, res.Rounds)
		}
	}
	if !sampled[int32(res.Rounds)] {
		t.Fatalf("final round %d not sampled", res.Rounds)
	}
	for r := stride; r < res.Rounds; r += stride {
		if !sampled[int32(r)] {
			t.Fatalf("on-stride round %d missing from samples", r)
		}
	}
}

func TestFloodFastDisconnectedTopologyError(t *testing.T) {
	n := 5
	disconnected := dynet.AdversaryFunc(func(r int, _ []dynet.Action) *graph.Graph {
		return graph.New(n) // no edges
	})
	run := func(fast bool) error {
		e := &dynet.Engine{
			Machines:          newFloodMachines(n, 2, 0),
			Adv:               disconnected,
			CheckConnectivity: true,
		}
		if fast {
			_, ok, err := e.TryFloodFast(8, dynet.StopNode(0))
			if !ok {
				t.Fatal("fast path declined")
			}
			return err
		}
		e.Terminated = dynet.NodeDecided(0)
		_, err := e.Run(8)
		return err
	}
	wantErr, gotErr := run(false), run(true)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("disconnected topology: message %v, fast %v", wantErr, gotErr)
	}
}

// lateCut is a DeltaAdversary over the line 0-1-...-(n-1) that removes
// the middle edge in round cut only: round cut's script deletes it and
// round cut+1's re-adds it. A flood from node 0 informs every node by the
// end of round n-1, so for cut >= n the graph is disconnected only in a
// round that starts saturated.
type lateCut struct{ n, cut int }

func (a lateCut) Topology(r int, _ []dynet.Action) *graph.Graph {
	g := graph.New(a.n)
	for v := 0; v+1 < a.n; v++ {
		g.AddEdge(v, v+1)
	}
	if r == a.cut {
		g.RemoveEdge(a.n/2-1, a.n/2)
	}
	return g
}

func (a lateCut) Diff(r int, _ []dynet.Action, d *dynet.EdgeDiff) {
	switch r {
	case a.cut:
		d.Del(a.n/2-1, a.n/2)
	case a.cut + 1:
		d.Add(a.n/2-1, a.n/2)
	}
}

// TestFloodFastCheckedAfterSaturation pins that the fast path, which stops
// patching its delta snapshot once every node is informed, never skips the
// connectivity check: a disconnection scripted after saturation must fail
// both paths with the same error under CheckConnectivity, and leave both
// results identical without it.
func TestFloodFastCheckedAfterSaturation(t *testing.T) {
	for _, n := range []int{4, 9, 70} {
		cut := n + 2
		for _, stopAll := range []bool{false, true} {
			for _, check := range []bool{false, true} {
				tc := floodCase{
					n: n, seed: 3, extraD: int64(2 * n), maxRounds: 3 * n,
					stopAll: stopAll, metrics: true, connCheck: check, observed: true,
					adv: func() dynet.Adversary { return lateCut{n: n, cut: cut} },
				}
				res, err := runBothPaths(t, tc)
				if !check {
					if err != nil || !res.Done || res.Rounds != 2*n {
						t.Fatalf("n=%d stopAll=%v unchecked: res=%+v err=%v, want done at round %d", n, stopAll, res, err, 2*n)
					}
					continue
				}
				want := fmt.Sprintf("dynet: adversary returned disconnected topology in round %d", cut)
				if err == nil || err.Error() != want {
					t.Fatalf("n=%d stopAll=%v checked: err=%v, want %q", n, stopAll, err, want)
				}
			}
		}
	}
}

// FuzzFloodEquivalence drives randomized (n, topology seed, D bound, stop
// mode, round cap, delta encoding, connectivity checking) tuples through
// both execution paths and requires bit-identical results and machine
// states. Connectivity checking is drawn from bit 1 of the seed.
func FuzzFloodEquivalence(f *testing.F) {
	f.Add(uint8(8), uint64(1), uint8(0), uint8(0), uint8(16), false)
	f.Add(uint8(64), uint64(7), uint8(3), uint8(1), uint8(128), true)
	f.Add(uint8(33), uint64(99), uint8(1), uint8(2), uint8(4), false)
	f.Add(uint8(40), uint64(6), uint8(0), uint8(2), uint8(200), true) // delta + connCheck
	f.Fuzz(func(t *testing.T, rawN uint8, seed uint64, rawD, rawStop, rawMax uint8, delta bool) {
		n := int(rawN)%120 + 2
		maxRounds := int(rawMax)%(2*n) + 1
		tc := floodCase{
			n: n, extra: int(seed % 4), seed: seed,
			extraD:    int64(rawD) % int64(n),
			maxRounds: maxRounds,
			delta:     delta,
			connCheck: seed&2 != 0,
			metrics:   true,
			observed:  seed%2 == 0,
			stride:    int(rawMax % 5),
		}
		switch rawStop % 3 {
		case 1:
			tc.stopNode = n - 1
		case 2:
			tc.stopAll = true
		}
		runBothPaths(t, tc)
	})
}
