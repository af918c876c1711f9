package wire

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
	"dyndiam/internal/verify"
)

const testRingCap = 1 << 16

// runDistributed executes spec as a real coordinator plus N node
// sessions over loopback TCP (goroutine processes; cmd/dynnode covers
// OS processes) and returns the artifacts, the transport registry, and
// each node's exit error.
func runDistributed(t *testing.T, spec RunSpec, mut func(*Config)) (*RunArtifacts, *obs.Registry, []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, ring, reg := NewArtifacts(testRingCap)
	transport := obs.NewRegistry()
	cfg := Config{
		Spec:         spec,
		Listener:     ln,
		Trace:        tr,
		Obs:          ring,
		Metrics:      reg,
		Transport:    transport,
		RoundTimeout: 500 * time.Millisecond,
		MaxRetries:   10,
		RetryBase:    10 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	nodeErrs := make([]error, spec.N)
	var wg sync.WaitGroup
	for v := 0; v < spec.N; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			nodeErrs[v] = RunNode(NodeConfig{
				ID:          v,
				Addr:        ln.Addr().String(),
				DialBase:    5 * time.Millisecond,
				IdleTimeout: 20 * time.Second,
			})
		}(v)
	}
	res, runErr := Run(cfg)
	wg.Wait()
	return CollectArtifacts(res, runErr, tr, ring, reg), transport, nodeErrs
}

// TestDistributedEquivalence is the keystone golden differential: over a
// matrix of protocols, adversaries, and fault mixes — including nonzero
// drop/corrupt/dup rates and crash/rejoin outages injected at the socket
// layer — the distributed execution must match Engine.Run byte for byte
// across results, per-round traces, obs event streams, and model metric
// snapshots.
func TestDistributedEquivalence(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		mut  func(*Config)
	}{
		{"cflood-ring-clean", RunSpec{
			Proto: "cflood", N: 8, Seed: 1, MaxRounds: 32, Adv: "ring", CheckConnectivity: true,
		}, nil},
		{"cflood-zero-rounds", RunSpec{
			Proto: "cflood", N: 4, Seed: 2, MaxRounds: 0, Adv: "line",
		}, nil},
		{"pflood-random-drop", RunSpec{
			Proto: "pflood", N: 8, Seed: 3, MaxRounds: 48, Adv: "random",
			Fault: faults.Spec{Seed: 7, Drop: 0.2},
		}, nil},
		{"consensus-star-corrupt-dup", RunSpec{
			Proto: "consensus", N: 6, Seed: 4, MaxRounds: 64, Adv: "star",
			Fault: faults.Spec{Seed: 9, Corrupt: 0.25, Dup: 0.25},
		}, nil},
		{"leader-bounded-mixed", RunSpec{
			Proto: "leader", N: 6, Seed: 5, MaxRounds: 96, Adv: "bounded", AdvD: 3,
			Fault: faults.Spec{Seed: 11, Drop: 0.05, Corrupt: 0.05, Dup: 0.05},
		}, nil},
		{"cflood-rotating-outages", RunSpec{
			Proto: "cflood", N: 8, Seed: 6, MaxRounds: 40, Adv: "rotating",
			Fault: faults.Spec{Seed: 13, Outages: []faults.Outage{
				{Node: 3, From: 2, Until: 5},
				{Node: 6, From: 4, Until: 7},
			}},
		}, nil},
		{"pflood-ring-crash-rate", RunSpec{
			Proto: "pflood", N: 8, Seed: 7, MaxRounds: 48, Adv: "ring",
			Fault: faults.Spec{Seed: 17, Crash: 0.08, MeanDown: 3},
		}, nil},
		{"cflood-complete-edgecut", RunSpec{
			Proto: "cflood", N: 8, Seed: 8, MaxRounds: 40, Adv: "complete", CheckConnectivity: true,
			Fault: faults.Spec{Seed: 19, EdgeCut: 0.15},
		}, nil},
		{"consensus-line-everything", RunSpec{
			Proto: "consensus", N: 6, Seed: 9, MaxRounds: 80, Adv: "line",
			Extra: map[string]int64{"D": 8},
			Fault: faults.Spec{
				Seed: 23, Drop: 0.1, Corrupt: 0.1, Dup: 0.1, EdgeCut: 0.05,
				Outages: []faults.Outage{{Node: 2, From: 3, Until: 6}},
			},
		}, nil},
		// The crash close lands in the final round, and node 1's redial is
		// held until the other nodes have reported their stats: the
		// coordinator must keep its listener open and let it in.
		{"pflood-ring-final-round-outage", RunSpec{
			Proto: "pflood", N: 8, Seed: 10, MaxRounds: 12, Adv: "ring",
			Fault: faults.Spec{Seed: 29, Outages: []faults.Outage{{Node: 1, From: 12, Until: 20}}},
		}, func(cfg *Config) {
			cfg.Listener = &slowRejoinListener{Listener: cfg.Listener, after: 8, delay: 200 * time.Millisecond}
		}},
		// The staller builds each round from that round's actions, so the
		// coordinator must hand it the actions the nodes committed.
		{"pflood-staller-adaptive", RunSpec{
			Proto: "pflood", N: 8, Seed: 11, MaxRounds: 48, Adv: "staller", CheckConnectivity: true,
		}, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dist, transport, nodeErrs := runDistributed(t, tc.spec, tc.mut)
			proc, err := RunInProcess(tc.spec, testRingCap)
			if err != nil {
				t.Fatalf("in-process twin: %v", err)
			}
			if err := Diff(dist, proc); err != nil {
				t.Fatal(err)
			}
			for v, nerr := range nodeErrs {
				if nerr != nil {
					t.Errorf("node %d exited with %v on a clean run", v, nerr)
				}
			}
			if tc.spec.Fault.Outages != nil || tc.spec.Fault.Crash > 0 {
				// Crash transitions hard-close node connections; the rejoin
				// machinery must have actually run.
				if n := counterValue(transport, "wire_fault_crash_closes_total"); n == 0 {
					t.Error("crash faults injected but wire_fault_crash_closes_total = 0")
				}
				if n := counterValue(transport, "wire_node_redials_total"); n == 0 {
					t.Error("crash closes happened but wire_node_redials_total = 0")
				}
				if n := counterValue(transport, "wire_reconnects_total"); n == 0 {
					t.Error("redials happened but wire_reconnects_total = 0")
				}
			}
		})
	}
}

// slowRejoinListener holds every connection after the first `after`
// for delay before handing it over, so a node that redials after a
// crash rejoins only once the others are done.
type slowRejoinListener struct {
	net.Listener
	after    int
	delay    time.Duration
	accepted int
}

func (l *slowRejoinListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		if l.accepted++; l.accepted > l.after {
			time.Sleep(l.delay)
		}
	}
	return c, err
}

// badAdv makes the adversary misbehave at a chosen round, to pin the
// coordinator's error texts against the engine's.
type badAdv struct {
	inner   dynet.Adversary
	atRound int
	mode    string // "nil", "small", "disconnected"
}

func (a *badAdv) Topology(r int, actions []dynet.Action) *graph.Graph {
	g := a.inner.Topology(r, actions)
	if r != a.atRound {
		return g
	}
	switch a.mode {
	case "nil":
		return nil
	case "small":
		return graph.Ring(g.N() - 1)
	case "disconnected":
		b := graph.New(g.N())
		b.AddEdge(0, 1)
		return b
	}
	return g
}

// TestDistributedErrorEquivalence pins that model violations abort the
// cluster with the byte-identical engine error — at the coordinator and
// at every node process — and that the flood fast path (RunFlood on the
// cflood machines) fails with the same text.
func TestDistributedErrorEquivalence(t *testing.T) {
	base := RunSpec{Proto: "cflood", N: 6, Seed: 21, MaxRounds: 24, Adv: "ring", CheckConnectivity: true}
	for _, mode := range []string{"nil", "small", "disconnected"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			mkAdv := func() dynet.Adversary {
				inner, err := base.BuildAdversary()
				if err != nil {
					t.Fatal(err)
				}
				return &badAdv{inner: inner, atRound: 3, mode: mode}
			}
			dist, _, nodeErrs := runDistributed(t, base, func(cfg *Config) { cfg.Adv = mkAdv() })
			if dist.Err == nil {
				t.Fatal("distributed run accepted a misbehaving adversary")
			}

			prob, err := verify.Lookup(base.Proto)
			if err != nil {
				t.Fatal(err)
			}
			_, machines := prob.Machines(base.N, base.Seed, base.Extra)
			tr, ring, reg := NewArtifacts(testRingCap)
			eng := &dynet.Engine{
				Machines: machines, Adv: mkAdv(), CheckConnectivity: true,
				Trace: tr, Obs: ring, Metrics: reg, Terminated: prob.Terminated(),
			}
			res, runErr := eng.Run(base.MaxRounds)
			proc := CollectArtifacts(res, runErr, tr, ring, reg)
			if proc.Err == nil {
				t.Fatal("engine accepted a misbehaving adversary")
			}
			if err := Diff(dist, proc); err != nil {
				t.Fatal(err)
			}
			// Every node is aborted with the same error text.
			for v, nerr := range nodeErrs {
				if nerr == nil || nerr.Error() != proc.Err.Error() {
					t.Errorf("node %d error = %v, want %q", v, nerr, proc.Err)
				}
			}

			machines, err = base.Machines()
			if err != nil {
				t.Fatal(err)
			}
			termNode, err := base.TermNode()
			if err != nil {
				t.Fatal(err)
			}
			fastReg := obs.NewRegistry()
			fast := &dynet.Engine{Machines: machines, Adv: mkAdv(), CheckConnectivity: true, Metrics: fastReg}
			if _, err := fast.RunFlood(base.MaxRounds, dynet.StopNode(termNode)); err == nil || err.Error() != proc.Err.Error() {
				t.Errorf("fast path error = %v, want %q", err, proc.Err)
			}
			if got := fastReg.Counter("engine_floodfast_runs_total").Value(); got != 1 {
				t.Errorf("engine_floodfast_runs_total = %d, want 1 (fast path not taken)", got)
			}
		})
	}
}

// TestRunSpecRoundTrip pins the WELCOME serialization contract.
func TestRunSpecRoundTrip(t *testing.T) {
	spec := RunSpec{
		Proto: "leader", N: 12, Seed: 99, MaxRounds: 500, CheckConnectivity: true,
		Adv: "bounded", AdvD: 4, Extra: map[string]int64{"D": 6},
		Fault: faults.Spec{Seed: 3, Drop: 0.01, Outages: []faults.Outage{{Node: 1, From: 2, Until: 9}}},
	}
	data, err := EncodeRunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRunSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != spec.Proto || got.N != spec.N || got.Seed != spec.Seed ||
		got.MaxRounds != spec.MaxRounds || got.Adv != spec.Adv || got.AdvD != spec.AdvD ||
		got.Extra["D"] != 6 || got.Fault.Drop != spec.Fault.Drop || len(got.Fault.Outages) != 1 {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, spec)
	}
	if _, err := ParseRunSpec([]byte(`{"proto":"nope","n":4,"max_rounds":1}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("bad protocol: err = %v", err)
	}
	if _, err := ParseRunSpec([]byte(`{"proto":"cflood","n":4,"max_rounds":1,"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseRunSpec([]byte(`{"proto":"cflood","n":4,"max_rounds":1,"fault":{"drop":-1}}`)); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// TestDiffComparesKeptTopologies: two traces with equal stats but
// different recorded topology sequences diverge.
func TestDiffComparesKeptTopologies(t *testing.T) {
	kept := func(g *graph.Graph) *RunArtifacts {
		return &RunArtifacts{Trace: &dynet.Trace{KeepTopologies: true, Schedule: dynet.FromGraphs([]*graph.Graph{g})}}
	}
	ring := kept(graph.Ring(5))
	if err := Diff(ring, kept(graph.Ring(5))); err != nil {
		t.Fatalf("equal sequences diverge: %v", err)
	}
	if err := Diff(ring, kept(graph.Line(5))); err == nil || !strings.Contains(err.Error(), "topology divergence") {
		t.Fatalf("different sequences: err = %v", err)
	}
}
