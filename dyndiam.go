package dyndiam

import (
	"io"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/chains"
	"dyndiam/internal/disjcp"
	"dyndiam/internal/dynet"
	"dyndiam/internal/export"
	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/consensus"
	"dyndiam/internal/protocols/counting"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/protocols/hearfrom"
	"dyndiam/internal/protocols/leader"
	"dyndiam/internal/rng"
	"dyndiam/internal/serve"
	"dyndiam/internal/subnet"
	"dyndiam/internal/twoparty"
)

func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

// --- Core model (package dynet) ---

// Model types: see the internal/dynet documentation for semantics.
type (
	// Engine executes a protocol over a dynamic network.
	Engine = dynet.Engine
	// Machine is one node's protocol state machine.
	Machine = dynet.Machine
	// Protocol builds per-node machines.
	Protocol = dynet.Protocol
	// Action is a node's per-round send-or-receive commitment.
	Action = dynet.Action
	// Adversary fixes each round's connected topology.
	Adversary = dynet.Adversary
	// Result summarizes an execution.
	Result = dynet.Result
	// Trace records per-round statistics and topologies.
	Trace = dynet.Trace
	// Graph is one round's topology.
	Graph = graph.Graph
)

// Budget returns the CONGEST per-message bit budget used for an N-node
// network (Θ(log N)).
func Budget(n int) int { return dynet.Budget(n) }

// NewMachines instantiates one machine per node with shared public coins.
func NewMachines(p Protocol, n int, inputs []int64, seed uint64, extra map[string]int64) []Machine {
	return dynet.NewMachines(p, n, inputs, seed, extra)
}

// AllDecided is the default termination predicate.
func AllDecided(ms []Machine) bool { return dynet.AllDecided(ms) }

// NodeDecided returns a predicate that holds once node v has output.
func NodeDecided(v int) func([]Machine) bool { return dynet.NodeDecided(v) }

// StaticAdversary presents the same graph every round.
func StaticAdversary(g *Graph) Adversary { return dynet.Static(g) }

// DynamicDiameter computes the paper's causal dynamic diameter of a
// topology sequence; exact reports whether the trace certifies it.
func DynamicDiameter(graphs []*Graph) (d int, exact bool) {
	return dynet.DynamicDiameter(graphs)
}

// --- Flood fast path & delta-encoded dynamic graphs (package dynet) ---

// Fast-path types: see internal/dynet (floodfast.go, delta.go) for the
// qualification rules and the DeltaAdversary calling contract.
type (
	// FloodStop selects a flood run's termination predicate.
	FloodStop = dynet.FloodStop
	// DeltaAdversary describes rounds as edge diffs against a snapshot.
	DeltaAdversary = dynet.DeltaAdversary
)

// FloodStopNode stops an Engine.RunFlood run once node v can output.
func FloodStopNode(v int) FloodStop { return dynet.StopNode(v) }

// DeltaChurnAdversary is the churn family as a native DeltaAdversary: a
// persistent random spanning tree plus extra slot edges, rewires of which
// are re-sampled each round as an O(rewires) edge-op script.
func DeltaChurnAdversary(n, extra, rewires int, seed uint64) DeltaAdversary {
	return adversaries.NewDeltaChurn(n, extra, rewires, seed)
}

// --- Graph builders (package graph) ---

// Line, Ring, Star, Complete, Grid and Hypercube build standard topologies.
func Line(n int) *Graph          { return graph.Line(n) }
func Ring(n int) *Graph          { return graph.Ring(n) }
func Star(n int) *Graph          { return graph.Star(n) }
func Complete(n int) *Graph      { return graph.Complete(n) }
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }
func Hypercube(dim int) *Graph   { return graph.Hypercube(dim) }

// WriteTrace serializes an execution trace (see Engine.Trace); ReadTrace
// loads one back, returning the trace and node count.
func WriteTrace(w io.Writer, t *Trace, nodeCount int) error {
	return dynet.WriteTrace(w, t, nodeCount)
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, int, error) { return dynet.ReadTrace(r) }

// --- Adversary families (package adversaries) ---

// RandomConnectedAdversary re-randomizes a connected topology every round.
func RandomConnectedAdversary(n, extraEdges int, seed uint64) Adversary {
	return adversaries.RandomConnected(n, extraEdges, seed)
}

// BoundedDiameterAdversary keeps every round's static diameter at most
// targetDiam.
func BoundedDiameterAdversary(n, targetDiam, extraEdges int, seed uint64) Adversary {
	return adversaries.BoundedDiameter(n, targetDiam, extraEdges, seed)
}

// RotatingStarAdversary has per-round diameter 2 but dynamic diameter n-1.
func RotatingStarAdversary(n int) Adversary { return adversaries.RotatingStar(n) }

// StallerAdversary is the adaptive adversary that defeats coin-driven
// flooding but not always-send flooding.
func StallerAdversary(n, source int) Adversary { return adversaries.NewStaller(n, source) }

// DualGraphAdversary is the dual-graph model [Kuhn et al.]: the reliable
// graph's edges appear every round; each unreliable edge appears with
// probability p. The paper's results extend to this model unchanged.
func DualGraphAdversary(reliable *Graph, unreliable [][2]int, p float64, seed uint64) Adversary {
	return adversaries.NewRandomDual(reliable, unreliable, p, seed)
}

// TIntervalAdversary is the T-interval connectivity model [Kuhn, Lynch,
// Oshman]: a stable connected subgraph persists through each T-round
// window, with extra random edges per round.
func TIntervalAdversary(n, t, extra int, seed uint64) Adversary {
	return adversaries.NewTInterval(n, t, extra, seed)
}

// --- Protocols ---

// Protocols implementing the paper's problems. Their tunables are passed
// through the extra map of NewMachines under the Extra* keys below.
type (
	// CFlood is deterministic confirmed flooding (known or pessimistic D).
	CFlood = flood.CFlood
	// PFlood is the probabilistic-flooding ablation.
	PFlood = flood.PFlood
	// KnownDConsensus is the trivial known-diameter consensus.
	KnownDConsensus = consensus.KnownD
	// ViaLeaderConsensus is unknown-diameter consensus via Section 7.
	ViaLeaderConsensus = consensus.ViaLeader
	// LeaderElect is the Section 7 leader-election protocol.
	LeaderElect = leader.Protocol
	// EstimateN estimates the network size with known D.
	EstimateN = counting.EstimateN
	// MajorityProbe is the standalone one-sided majority counter.
	MajorityProbe = counting.MajorityProbe
	// Max computes the maximum input with known D.
	Max = hearfrom.Max
	// HearFrom solves HEAR-FROM-N-NODES with known D and N.
	HearFrom = hearfrom.HearFrom
	// HearFromExact is the exact causal-bookkeeping HEAR-FROM-N-NODES.
	HearFromExact = hearfrom.Exact
	// SumEstimate estimates the sum of node weights with known D (the
	// separable-function aggregate of Mosk-Aoyama–Shah).
	SumEstimate = counting.SumEstimate
)

// Common Extra keys (see each protocol's documentation for the full list).
const (
	// ExtraDiameter is the diameter bound given to known-D protocols.
	ExtraDiameter = "D"
	// ExtraNPrime is the size estimate for Theorem 8 protocols.
	ExtraNPrime = leader.ExtraNPrime
	// ExtraCPermille is the N'-accuracy margin c in thousandths.
	ExtraCPermille = leader.ExtraCPermille
	// ExtraSkipCount1 disables the COUNT1 pre-lock check (the Section 7
	// two-stage-locking ablation; expect lock rollbacks).
	ExtraSkipCount1 = leader.ExtraSkipStage1
)

// Informed reports whether a flood machine holds the token.
func Informed(m Machine) bool { return flood.Informed(m) }

// FailedCandidacies returns how many candidacies a LeaderElect machine
// declared and rolled back (the two-stage-locking ablation metric).
func FailedCandidacies(m Machine) int { return leader.FailedCandidacies(m) }

// --- Lower-bound machinery ---

// Party identifies the reference execution or a simulating party.
type Party = chains.Party

// Parties.
const (
	Reference = chains.Reference
	Alice     = chains.Alice
	Bob       = chains.Bob
)

// DisjInstance is a DISJOINTNESSCP_{n,q} input pair under the cycle promise.
type DisjInstance = disjcp.Instance

// RandomDisjOne/Zero generate promise-satisfying instances with a fixed
// answer; DisjFromStrings parses digit strings like the paper's figures.
func RandomDisjOne(n, q int, seed uint64) DisjInstance {
	return disjcp.RandomOne(n, q, rngNew(seed))
}

// RandomDisjZero generates an instance with answer 0 and the given number
// of (0,0) witnesses.
func RandomDisjZero(n, q, zeros int, seed uint64) DisjInstance {
	return disjcp.RandomZero(n, q, zeros, rngNew(seed))
}

// DisjFromStrings parses instances like ("3110", "2200", 5) — Figure 1.
func DisjFromStrings(x, y string, q int) (DisjInstance, error) {
	return disjcp.FromStrings(x, y, q)
}

// CFloodNetwork is the Theorem 6 composition (type-Γ + type-Λ).
type CFloodNetwork = subnet.CFloodNet

// ConsensusNetwork is the Theorem 7 composition (type-Λ + type-Υ).
type ConsensusNetwork = subnet.ConsensusNet

// NewCFloodNetwork composes the Theorem 6 network for an instance.
func NewCFloodNetwork(in DisjInstance) (*CFloodNetwork, error) { return subnet.NewCFlood(in) }

// NewConsensusNetwork composes the Theorem 7 network for an instance.
func NewConsensusNetwork(in DisjInstance) (*ConsensusNetwork, error) { return subnet.NewConsensus(in) }

// ReductionSetup configures a two-party reduction run; ReductionResult
// reports claims, exact bit counts, and Lemma 5 referee findings.
type (
	ReductionSetup  = twoparty.Setup
	ReductionResult = twoparty.Result
)

// CFloodReductionSetup builds the Theorem 6 Alice/Bob simulation over an
// oracle protocol.
func CFloodReductionSetup(net *CFloodNetwork, oracle Protocol, seed uint64, extra map[string]int64) ReductionSetup {
	return twoparty.FromCFlood(net, oracle, seed, extra)
}

// RunReduction executes a two-party reduction; with referee set it also
// cross-checks both parties against the reference execution (Lemma 5).
func RunReduction(s ReductionSetup, referee bool) (*ReductionResult, error) {
	return twoparty.Run(s, referee)
}

// --- Experiment harness ---

// ResultTable is a renderable experiment table.
type ResultTable = harness.Table

// Sweep holds the options every experiment sweep runs under — worker
// count, round budget, metric roll-up registry and span sink — and the
// sweeps are its methods (GapTable, LeaderSweep, EstimateSweep,
// MajoritySweep, ConsensusGap, CFloodReduction, ConsensusReduction,
// ConsensusReductionOracle, LeaderReliability, LeaderPhases,
// LeaderDegradation, CFloodDegradation). The zero value runs cells on
// every core (Workers < 1 means GOMAXPROCS; Workers 1 is sequential)
// under DefaultRoundBudget with no metrics and no spans; tables are
// identical at every Workers setting.
type Sweep = harness.Sweep

// Experiment table renderers and the sweep-free entry points; see
// internal/harness for row semantics.
var (
	FormatGapTable         = harness.FormatGapTable
	FormatLeaderTable      = harness.FormatLeaderTable
	FormatEstimateTable    = harness.FormatEstimateTable
	FormatMajorityTable    = harness.FormatMajorityTable
	FormatReductionTable   = harness.FormatReductionTable
	FormatConsensusRedTbl  = harness.FormatConsensusReductionTable
	FormatReliability      = harness.FormatReliability
	ConstructionDiameters  = harness.ConstructionDiameters
	FormatDiameterTable    = harness.FormatDiameterTable
	CommTable              = harness.CommTable
	FormatCommTable        = harness.FormatCommTable
	FormatConsensusGapTbl  = harness.FormatConsensusGapTable
	Figure1                = harness.Figure1
	Figure2                = harness.Figure2
	Figure3                = harness.Figure3
	MeasureDynamicDiameter = harness.MeasureDynamicDiameter
)

// CFloodDOT renders round r of the Theorem 6 composition under a party's
// adversary, with construction roles highlighted (specials, line middles,
// mounting points, spoiled region).
func CFloodDOT(net *CFloodNetwork, p Party, r int) string {
	return export.CFloodDOT(net, p, r)
}

// WriteTableCSV writes a result table as CSV.
func WriteTableCSV(w io.Writer, t *ResultTable) error { return export.WriteCSV(w, t) }

// PhaseBreakdown aggregates the Section 7 protocol's internal counters for
// one election run.
type PhaseBreakdown = harness.PhaseBreakdown

// FormatPhaseBreakdown renders Sweep.LeaderPhases results, the phase
// structure of Section 7 runs.
var FormatPhaseBreakdown = harness.FormatPhaseBreakdown

// MobileAdversary models a mobile ad-hoc network: nodes drift through the
// unit square and connect within the given radius (patched to stay
// connected, as the model requires).
func MobileAdversary(n int, radius, speed float64, seed uint64) Adversary {
	return adversaries.NewMobile(n, radius, speed, seed)
}

// SpoiledGrowth tabulates the per-round shrink of the simulable
// (non-spoiled) region during the two-party reduction; FormatSpoiledTable
// renders it.
var (
	SpoiledGrowth      = harness.SpoiledGrowth
	FormatSpoiledTable = harness.FormatSpoiledTable
)

// --- Robustness & fault injection (packages faults, harness) ---

// Fault-injection types: see internal/faults for the determinism and
// zero-overhead contracts, internal/harness for the degradation sweeps.
type (
	// FaultSpec configures one fault mix (drop/dup/corrupt/crash/edge-cut
	// rates plus scheduled outages); the zero Spec injects nothing.
	FaultSpec = faults.Spec
	// FaultPlan is a compiled, seeded fault schedule; assign one to
	// Engine.Plan to inject it.
	FaultPlan = faults.Plan
	// DegradationConfig configures a fault-rate sweep.
	DegradationConfig = harness.DegradationConfig
	// DegradationRow is one fault Spec's error-rate estimate.
	DegradationRow = harness.DegradationRow
)

// DefaultRoundBudget is the harness's default per-run round budget.
const DefaultRoundBudget = harness.DefaultRoundBudget

// NewFaultPlan validates and compiles a FaultSpec.
func NewFaultPlan(spec FaultSpec) (*FaultPlan, error) { return faults.NewPlan(spec) }

// ReliabilityTrialSeed and FaultTrialSeed are the seed derivations the
// reliability and degradation sweeps (Sweep.LeaderDegradation,
// Sweep.CFloodDegradation) use per trial — exported so any single faulty
// trial can be replayed in isolation (see EXPERIMENTS.md).
var (
	ReliabilityTrialSeed = harness.ReliabilityTrialSeed
	FaultTrialSeed       = harness.FaultTrialSeed
	// FaultSpecFor builds the Spec of one (dimension, rate) sweep point.
	FaultSpecFor = harness.FaultSpecFor
)

// --- Observability (package obs) ---

// Observability types: see internal/obs for the full contract (zero
// allocation with a nil sink, deterministic event order, round-stamped
// time base).
type (
	// ObsEvent is one fixed-size observation (round, node, kind, args).
	ObsEvent = obs.Event
	// ObsSink receives events; Engine.Obs, LeaderElect.Obs, and
	// ReductionSetup.Obs all accept one.
	ObsSink = obs.Sink
	// ObsRing is the preallocated fixed-capacity event sink.
	ObsRing = obs.Ring
	// MetricsRegistry collects counters, gauges, and histograms;
	// Engine.Metrics and ReductionSetup.Metrics accept one.
	MetricsRegistry = obs.Registry
	// ObsName is an interned event name (the ObsEvent.Name field).
	ObsName = obs.Key
)

// InternObsKey interns name for use in ObsEvent.Name. Interning is
// idempotent and the zero ObsName renders as "".
func InternObsKey(name string) ObsName { return obs.Intern(name) }

// Event kinds (see internal/obs for per-kind field layouts).
const (
	ObsRoundStart   = obs.KindRoundStart
	ObsSend         = obs.KindSend
	ObsDecide       = obs.KindDecide
	ObsPhaseEnter   = obs.KindPhaseEnter
	ObsLockAcquire  = obs.KindLockAcquire
	ObsLockRollback = obs.KindLockRollback
	ObsSpoilMark    = obs.KindSpoilMark
	ObsSpanBegin    = obs.KindSpanBegin
	ObsSpanEnd      = obs.KindSpanEnd
	ObsFrontier     = obs.KindFrontier
	ObsCustom       = obs.KindCustom
)

// ObsSpan is an open span handle: BeginSpan emits the begin event and
// End closes it. Spans live on logical clocks (engine rounds, harness
// cell indices, serve milliseconds) and surface as complete events in
// WriteChromeTrace output.
type ObsSpan = obs.Span

// BeginSpan opens a span on sink; a nil sink yields an inert handle.
func BeginSpan(sink ObsSink, name string, track, node, t int32, arg int64) ObsSpan {
	return obs.BeginSpan(sink, obs.Intern(name), track, node, t, arg)
}

// NewObsRing returns a ring sink holding the last capacity events.
func NewObsRing(capacity int) *ObsRing { return obs.NewRing(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteEventsJSONL / ReadEventsJSONL serialize event streams as JSON
// Lines; WriteChromeTrace emits Chrome trace-event JSON loadable in
// Perfetto; WriteMetricsText emits a Prometheus text exposition.
func WriteEventsJSONL(w io.Writer, events []ObsEvent) error { return obs.WriteJSONL(w, events) }

// ReadEventsJSONL parses a stream written by WriteEventsJSONL.
func ReadEventsJSONL(r io.Reader) ([]ObsEvent, error) { return obs.ReadJSONL(r) }

// WriteChromeTrace converts an event stream to Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []ObsEvent) error { return obs.WriteChromeTrace(w, events) }

// WriteMetricsText writes a registry as Prometheus text exposition.
func WriteMetricsText(w io.Writer, r *MetricsRegistry) error { return obs.WriteMetricsText(w, r) }

// --- Experiment serving (package serve) ---

// Serving-layer types: see internal/serve for the content-addressing and
// singleflight contracts.
type (
	// ServeConfig tunes an experiment server (workers, queue bound, job
	// budget, backpressure hint, executor override).
	ServeConfig = serve.Config
	// ServeCachedResult is the checkpoint shape of one completed job.
	ServeCachedResult = serve.CachedResult
)

// NewExperimentServer builds a server that runs experiment jobs over a
// content-addressed result cache behind an HTTP/JSON API (cmd/dynserve
// hosts one) and starts its worker pool.
var NewExperimentServer = serve.New
