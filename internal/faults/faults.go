// Package faults is the deterministic fault-injection layer: a compiled
// Plan of model-violating faults — message drops, duplications, bit
// corruptions, node crash/rejoin outages, and adversary edge cuts — that
// the round engine consults between the adversary's topology and message
// delivery.
//
// The paper's guarantees (Theorem 8's error <= 1/N leader election, the
// Theorem 6/7 reductions) are proved under a clean model: no loss, no
// crashes, always-connected rounds. The degradation experiments ask how
// fast those guarantees decay as the model is violated, which demands two
// properties of the injection layer:
//
// Determinism. Every fault decision is a pure function of
// (seed, round, node, edge) through internal/rng's splittable streams —
// never of execution order, wall clocks, or map iteration. Two runs from
// the same seed inject byte-identical fault schedules, so a single faulty
// trial from a million-cell sweep can be replayed in isolation by seed,
// and parallel sweeps stay bit-identical to sequential ones.
//
// Zero overhead when off. A nil *Plan (or a Plan whose Spec is all-zero,
// reported by Enabled) keeps the engine exactly on its allocation-free
// round loop; the engine's alloc regression tests pin this.
//
// Fault semantics, applied in engine order:
//
//   - Crash/rejoin (Down): a down node is frozen — its Step is not
//     called, it neither sends nor receives, and messages addressed to it
//     are lost. It rejoins with the state it crashed with. Outages come
//     from an explicit schedule (Spec.Outages) and/or a seeded renewal
//     process (Spec.Crash, Spec.MeanDown).
//   - Edge cuts (CutEdge): each edge of the adversary's (connected,
//     model-obeying) topology is removed independently with probability
//     Spec.EdgeCut, possibly disconnecting the round.
//   - Delivery faults (Delivery): each (sender, receiver) message copy is
//     independently dropped with probability Spec.Drop; surviving copies
//     are duplicated with probability Spec.Dup and have one uniformly
//     chosen payload bit flipped with probability Spec.Corrupt.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dyndiam/internal/rng"
)

// Spec configures one fault mix. All rates are probabilities in [0, 1];
// the zero Spec injects nothing.
type Spec struct {
	// Seed roots every fault stream. Two Plans with equal Specs (seed
	// included) produce identical schedules.
	Seed uint64

	// Drop is the per-delivery probability that a message copy on one
	// (sender, receiver) edge is lost.
	Drop float64
	// Dup is the per-delivery probability that a surviving copy is
	// delivered twice.
	Dup float64
	// Corrupt is the per-delivery probability that a surviving copy has
	// one uniformly random payload bit flipped.
	Corrupt float64

	// Crash is the per-round probability that an up node crashes.
	Crash float64
	// MeanDown is the mean outage length in rounds for rate-based
	// crashes (default 8 when Crash > 0). Outage lengths are geometric
	// with this mean, so every outage lasts at least one round.
	MeanDown float64
	// Outages schedules explicit downtime windows in addition to the
	// rate-based process.
	Outages []Outage

	// EdgeCut is the per-round probability that an edge of the
	// adversary's topology is removed before delivery.
	EdgeCut float64
}

// Outage is one scheduled downtime window: Node is down in every round r
// with From <= r <= Until (rounds start at 1).
type Outage struct {
	Node        int
	From, Until int
}

// DefaultMeanDown is the mean rate-based outage length used when a Spec
// sets Crash > 0 but leaves MeanDown zero.
const DefaultMeanDown = 8

// Validate checks rates and windows; NewPlan calls it.
func (s Spec) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0, 1]", name, v)
		}
		return nil
	}
	if err := check("drop", s.Drop); err != nil {
		return err
	}
	if err := check("dup", s.Dup); err != nil {
		return err
	}
	if err := check("corrupt", s.Corrupt); err != nil {
		return err
	}
	if err := check("crash", s.Crash); err != nil {
		return err
	}
	if err := check("edgecut", s.EdgeCut); err != nil {
		return err
	}
	if s.MeanDown < 0 || math.IsNaN(s.MeanDown) || math.IsInf(s.MeanDown, 0) {
		return fmt.Errorf("faults: mean downtime %v must be a finite non-negative round count", s.MeanDown)
	}
	if s.MeanDown != 0 && s.MeanDown < 1 {
		return fmt.Errorf("faults: mean downtime %v is below one round", s.MeanDown)
	}
	for _, o := range s.Outages {
		if o.Node < 0 {
			return fmt.Errorf("faults: outage node %d is negative", o.Node)
		}
		if o.From < 1 || o.Until < o.From {
			return fmt.Errorf("faults: outage window [%d, %d] for node %d is empty or starts before round 1", o.From, o.Until, o.Node)
		}
	}
	return nil
}

// Zero reports whether the Spec injects no faults at all.
func (s Spec) Zero() bool {
	return s.Drop == 0 && s.Dup == 0 && s.Corrupt == 0 &&
		s.Crash == 0 && len(s.Outages) == 0 && s.EdgeCut == 0
}

// Label renders the non-zero dimensions compactly ("drop=0.05,crash=0.01");
// the zero Spec renders as "none". Used as the row key of degradation
// tables and chaos checkpoints.
func (s Spec) Label() string {
	var parts []string
	add := func(name string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, v))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("corrupt", s.Corrupt)
	add("crash", s.Crash)
	if len(s.Outages) > 0 {
		parts = append(parts, fmt.Sprintf("outages=%d", len(s.Outages)))
	}
	add("edgecut", s.EdgeCut)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Plan is a compiled fault schedule: a pure function of the Spec (seed
// included) answering per-round queries. A Plan memoizes the rate-based
// outage windows it has generated, so it is not safe for concurrent use;
// build one Plan per engine execution (sweep cells each build their own).
type Plan struct {
	spec   Spec
	root   *rng.Source
	rejoin float64 // per-round rejoin probability = 1/MeanDown

	outages []Outage // scheduled windows, sorted by (Node, From)

	nodes []nodeWindows // lazily generated rate-based windows per node
}

// window is one generated outage: down in rounds [from, until].
type window struct{ from, until int }

type nodeWindows struct {
	src  *rng.Source // this node's outage stream; nil until first query
	wins []window    // ascending, non-overlapping
	next int         // first round not yet covered by generation
}

// NewPlan validates and compiles a Spec.
func NewPlan(spec Spec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Crash > 0 && spec.MeanDown == 0 {
		spec.MeanDown = DefaultMeanDown
	}
	p := &Plan{spec: spec, root: rng.New(spec.Seed)}
	if spec.MeanDown > 0 {
		p.rejoin = 1 / spec.MeanDown
	}
	p.outages = append(p.outages, spec.Outages...)
	sort.Slice(p.outages, func(i, j int) bool {
		a, b := p.outages[i], p.outages[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.From < b.From
	})
	// Coalesce overlapping or adjacent windows per node so Until is
	// strictly increasing within each node — the invariant the binary
	// search in scheduledDown relies on.
	merged := p.outages[:0]
	for _, o := range p.outages {
		if n := len(merged); n > 0 && merged[n-1].Node == o.Node && o.From <= merged[n-1].Until+1 {
			if o.Until > merged[n-1].Until {
				merged[n-1].Until = o.Until
			}
			continue
		}
		merged = append(merged, o)
	}
	p.outages = merged
	return p, nil
}

// Spec returns the plan's (validated, defaults-filled) Spec.
func (p *Plan) Spec() Spec { return p.spec }

// Enabled reports whether the plan can inject any fault. The engine treats
// a nil or disabled plan as the clean path.
func (p *Plan) Enabled() bool { return p != nil && !p.spec.Zero() }

// HasNodeFaults reports whether any node can ever be down.
func (p *Plan) HasNodeFaults() bool {
	return p.spec.Crash > 0 || len(p.outages) > 0
}

// HasEdgeFaults reports whether topology edges can be cut.
func (p *Plan) HasEdgeFaults() bool { return p.spec.EdgeCut > 0 }

// HasDeliveryFaults reports whether per-delivery faults (drop, dup,
// corrupt) can occur.
func (p *Plan) HasDeliveryFaults() bool {
	return p.spec.Drop > 0 || p.spec.Dup > 0 || p.spec.Corrupt > 0
}

// Down reports whether node v is down (crashed) in round r. It is a pure
// function of (seed, v, r): scheduled windows are checked first, then the
// node's seeded renewal process, whose windows are generated lazily from
// the node's own split stream and memoized.
func (p *Plan) Down(r, v int) bool {
	if r < 1 || v < 0 {
		return false
	}
	if p.scheduledDown(r, v) {
		return true
	}
	if p.spec.Crash <= 0 {
		return false
	}
	// Grow the per-node table on demand; queries address nodes densely.
	for len(p.nodes) <= v {
		p.nodes = append(p.nodes, nodeWindows{next: 1})
	}
	nw := &p.nodes[v]
	if nw.src == nil {
		nw.src = p.root.Split('c', uint64(v)) // lazy one-time per-node coin source
	}
	for nw.next <= r {
		up := geometric(nw.src, p.spec.Crash)
		from := nw.next + up
		down := 1 + geometric(nw.src, p.rejoin)
		nw.wins = append(nw.wins, window{from: from, until: from + down - 1})
		nw.next = from + down
	}
	i := sort.Search(len(nw.wins), func(i int) bool { return nw.wins[i].until >= r }) //lint:allow hotpathalloc non-escaping sort.Search predicate stays on the stack
	return i < len(nw.wins) && nw.wins[i].from <= r
}

// scheduledDown checks the explicit outage windows (sorted by node, from).
func (p *Plan) scheduledDown(r, v int) bool {
	i := sort.Search(len(p.outages), func(i int) bool { //lint:allow hotpathalloc non-escaping sort.Search predicate stays on the stack
		o := p.outages[i]
		return o.Node > v || (o.Node == v && o.Until >= r)
	})
	return i < len(p.outages) && p.outages[i].Node == v && p.outages[i].From <= r
}

// geometric draws the number of failures before the first success of a
// Bernoulli(prob) sequence — a geometric variate with mean (1-p)/p —
// using the closed form so one outage costs O(1) draws, not O(length).
func geometric(s *rng.Source, prob float64) int {
	if prob >= 1 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	k := math.Floor(math.Log(u) / math.Log(1-prob))
	if k < 0 {
		return 0
	}
	// Cap pathological tails so a tiny rate cannot produce an outage gap
	// that overflows int arithmetic on round numbers.
	if k > 1e12 {
		return 1 << 40
	}
	return int(k)
}

// Delivery is the fate of one delivered message copy.
type Delivery struct {
	// Drop: the copy is lost (Dup and FlipBit are then meaningless).
	Drop bool
	// Dup: the copy is delivered twice.
	Dup bool
	// FlipBit is the payload bit index to flip, or -1 for no corruption.
	FlipBit int
}

// Delivery decides the fate of the round-r message copy from node `from`
// to node `to` whose payload holds nbits bits. Pure function of
// (seed, r, from, to) — nbits only bounds the flipped bit index.
func (p *Plan) Delivery(r, from, to, nbits int) Delivery {
	d := Delivery{FlipBit: -1}
	if !p.HasDeliveryFaults() {
		return d
	}
	s := p.root.Split('d', uint64(r), uint64(from), uint64(to))
	if s.Prob(p.spec.Drop) {
		d.Drop = true
		return d
	}
	if s.Prob(p.spec.Dup) {
		d.Dup = true
	}
	if nbits > 0 && s.Prob(p.spec.Corrupt) {
		d.FlipBit = s.Intn(nbits)
	}
	return d
}

// CutEdge reports whether the undirected edge (u, v) of round r's topology
// is removed. Pure function of (seed, r, min(u,v), max(u,v)).
func (p *Plan) CutEdge(r, u, v int) bool {
	if p.spec.EdgeCut <= 0 {
		return false
	}
	if v < u {
		u, v = v, u
	}
	return p.root.Split('e', uint64(r), uint64(u), uint64(v)).Prob(p.spec.EdgeCut)
}
