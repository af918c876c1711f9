package dynet

import (
	"fmt"

	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Nodes is how the round kernel reaches one execution's nodes: Engine.Run
// drives in-process Machines through it, the distributed coordinator
// (internal/wire) drives node processes over TCP. Everything else in a
// round belongs to the kernel (RunNodes), so every execution path runs
// one copy of the model.
type Nodes interface {
	// Step commits round rd.R: it fills rd.Actions[v] and rd.Outgoing[v]
	// for every node v not marked in rd.Down. The kernel has already
	// committed down nodes to a silent Receive.
	Step(rd *Round) error
	// Deliver hands every receiving node not marked in rd.Down its inbox
	// rd.Inboxes[v].
	Deliver(rd *Round) error
	// Output reports node v's output and whether v has decided.
	Output(v int) (int64, bool)
	// Done is the termination predicate, asked at the end of each round.
	Done() bool
}

// Round is the round in progress as the kernel hands it to Nodes. Its
// slices are allocated once per run and reused every round.
type Round struct {
	R        int
	Actions  []Action
	Outgoing []Message
	// Down marks the nodes crashed this round; nil unless the fault plan
	// has node faults.
	Down []bool
	// G is the delivered (post-fault) topology and Inboxes the post-fault
	// inboxes in ascending sender order; both are set before Deliver.
	G       *graph.Graph
	Inboxes [][]Message
}

// RunNodes is the round kernel: it executes up to maxRounds rounds of
// the model over n nodes reached through nodes, stopping at the end of
// the first round in which nodes.Done() holds. Each round is the
// sequence MODEL.md §1 specifies, in kernel.round. Engine.Run is
// RunNodes over e.Machines; RunNodes reads every other Engine field
// except Terminated (nodes.Done replaces it), Workers and
// ObsRoundStride. The run totals go to Metrics once, after the last
// round. A model violation, or an error from Step or Deliver, ends the
// run with that error and no result.
//
// The round is steady-state allocation-free: every buffer is allocated
// by newKernel, inbox backing arrays are reused across rounds, and the
// connectivity check runs over preallocated scratch. Per-round
// allocations, if any, come from the nodes or the adversary. The
// hotpathalloc rule enforces this interprocedurally; setup and error
// paths carry documented allows.
//
//lint:hotpath
func (e *Engine) RunNodes(nodes Nodes, n, maxRounds int) (*Result, error) {
	if n == 0 {
		return &Result{Done: true}, nil //lint:allow hotpathalloc empty-run early return, not the round loop
	}
	k := newKernel(e, nodes, n, maxRounds) //lint:allow hotpathalloc setup phase: the kernel preallocates every round buffer
	res := k.res
	for r := 1; r <= maxRounds; r++ {
		done, err := k.round(r)
		if err != nil {
			return nil, err
		}
		if done {
			res.Rounds, res.Done = r, true
			break
		}
	}
	for v := range res.Outputs {
		res.Outputs[v], res.Decided[v] = nodes.Output(v)
	}
	if !res.Done && maxRounds < 1 {
		// The loop never ran, so the predicate was never evaluated; ask
		// once. (After a full loop the last in-loop evaluation is already
		// authoritative: nodes do not change between rounds.)
		res.Done = nodes.Done()
	}
	k.metrics.flush(res) //lint:allow hotpathalloc post-loop metrics flush
	return res, nil
}

// kernel is one RunNodes execution's state.
type kernel struct {
	e       *Engine
	nodes   Nodes
	budget  int
	rd      Round
	topo    topoCheck
	metrics runMetrics
	faults  *faultState // nil unless the plan injects faults
	decided []bool      // Decide-event bookkeeping; nil without Obs
	res     *Result
}

func newKernel(e *Engine, nodes Nodes, n, maxRounds int) *kernel {
	k := &kernel{
		e:       e,
		nodes:   nodes,
		budget:  e.budget(n),
		topo:    newTopoCheck(n, e.CheckConnectivity),
		metrics: newRunMetrics(e.Metrics),
		rd: Round{
			Actions:  make([]Action, n),
			Outgoing: make([]Message, n),
			Inboxes:  make([][]Message, n),
		},
		res: &Result{Rounds: maxRounds, Outputs: make([]int64, n), Decided: make([]bool, n)},
	}
	if e.Plan.Enabled() {
		k.faults = newFaultState(e.Plan, e.Obs, e.Metrics, n)
		k.rd.Down = k.faults.down
	}
	if e.Obs != nil {
		k.decided = make([]bool, n)
		for v := range k.decided {
			_, k.decided[v] = nodes.Output(v)
		}
	}
	return k
}

// round runs round r and reports whether the termination predicate holds
// at its end.
func (k *kernel) round(r int) (bool, error) {
	e, rd, fs, sink := k.e, &k.rd, k.faults, k.e.Obs
	rd.R = r
	if sink != nil {
		sink.Emit(obs.Event{Kind: obs.KindRoundStart, Round: int32(r)})
	}
	if fs != nil {
		// Down nodes are frozen for the whole round: not stepped, not
		// sending, not receiving.
		fs.beginRound(r)
		for v, d := range rd.Down {
			if d {
				rd.Actions[v], rd.Outgoing[v] = Receive, Message{}
			}
		}
	}
	if err := k.nodes.Step(rd); err != nil { //lint:allow hotpathalloc,puritytaint each execution path owns its reach to the nodes (the wire barrier arms deadlines); the engine's Step is a hotpath root of its own
		return false, err
	}
	senders, bits := 0, 0
	for v, a := range rd.Actions {
		if a != Send {
			continue
		}
		rd.Outgoing[v].From = v
		nbits := rd.Outgoing[v].NBits
		if nbits > k.budget {
			return false, budgetError(v, r, nbits, k.budget) //lint:allow hotpathalloc error path terminates the run
		}
		senders++
		bits += nbits
		if sink != nil {
			sink.Emit(obs.Event{Kind: obs.KindSend, Round: int32(r), Node: int32(v), A: int64(nbits)})
		}
	}
	k.res.Messages += senders
	k.res.Bits += bits
	k.metrics.observe(senders, bits)

	g := e.Adv.Topology(r, rd.Actions) //lint:allow hotpathalloc adversaries own their per-round topology allocation budget
	if err := k.topo.check(r, g); err != nil {
		return false, err
	}
	if fs != nil && fs.edgeFaults {
		// The adversary met its connectivity obligation above; the fault
		// layer may now legitimately disconnect the round.
		g = fs.perturb(r, g)
	}
	if fs != nil && (fs.deliveryFaults || fs.nodeFaults) {
		fs.collect(r, g, rd.Actions, rd.Outgoing, rd.Inboxes)
	} else {
		collect(g, rd.Actions, rd.Outgoing, rd.Inboxes)
	}
	rd.G = g
	if err := k.nodes.Deliver(rd); err != nil { //lint:allow hotpathalloc,puritytaint each execution path owns its reach to the nodes (the wire barrier arms deadlines); the engine's Deliver is a hotpath root of its own
		return false, err
	}

	if e.Trace != nil {
		e.Trace.record(r, g, rd.Actions, rd.Outgoing) //lint:allow hotpathalloc tracing is opt-in; a kept topology costs one diff per round
	}
	if sink != nil {
		for v, dec := range k.decided {
			if !dec {
				if out, ok := k.nodes.Output(v); ok {
					k.decided[v] = true
					sink.Emit(obs.Event{Kind: obs.KindDecide, Round: int32(r), Node: int32(v), A: out})
				}
			}
		}
		sink.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: int32(r), A: int64(senders), B: int64(bits)})
	}
	return k.nodes.Done(), nil
}

// budget is the per-message bit budget of a run over n nodes.
func (e *Engine) budget(n int) int {
	if e.Budget == 0 {
		return Budget(n)
	}
	return e.Budget
}

// topoCheck holds the model's obligations on each round's topology, for
// the kernel and the flood fast path: it spans exactly n nodes and, when
// connectivity is checked, it is connected.
type topoCheck struct {
	n           int
	dist, queue []int32 // BFS scratch; nil when connectivity is not checked
}

func newTopoCheck(n int, connectivity bool) topoCheck {
	c := topoCheck{n: n}
	if connectivity {
		c.dist, c.queue = make([]int32, n), make([]int32, n)
	}
	return c
}

// connectivity reports whether the check includes connectivity.
func (c *topoCheck) connectivity() bool { return c.dist != nil }

func (c *topoCheck) check(r int, g *graph.Graph) error {
	if g == nil || g.N() != c.n {
		return fmt.Errorf("dynet: adversary returned topology over %v nodes, want %d", gN(g), c.n) //lint:allow hotpathalloc error path terminates the run
	}
	if c.dist != nil && !g.ConnectedInto(c.dist, c.queue) {
		return fmt.Errorf("dynet: adversary returned disconnected topology in round %d", r) //lint:allow hotpathalloc error path terminates the run
	}
	return nil
}

func gN(g *graph.Graph) interface{} {
	if g == nil {
		return "nil"
	}
	return g.N()
}

// runMetrics holds a run's engine_* metrics: the per-round histograms,
// resolved at setup, and the run totals, which flush resolves and adds
// once a run succeeds (an errored run leaves no totals behind). All
// handles are nil, and every call a no-op, without a registry.
type runMetrics struct {
	reg           *obs.Registry
	senders, bits *obs.Histogram
}

// MetricRounds names the counter of rounds run, which sweeps also read
// back per cell.
const MetricRounds = "engine_rounds_total"

// RoundHistBounds buckets per-round sender and bit totals geometrically;
// shared so merged sweep registries agree on one bucket layout.
var RoundHistBounds = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

func newRunMetrics(reg *obs.Registry) runMetrics {
	return runMetrics{
		reg:     reg,
		senders: reg.Histogram("engine_round_senders", RoundHistBounds),
		bits:    reg.Histogram("engine_round_bits", RoundHistBounds),
	}
}

func (m runMetrics) observe(senders, bits int) {
	m.senders.Observe(int64(senders))
	m.bits.Observe(int64(bits))
}

func (m runMetrics) flush(res *Result) {
	if m.reg == nil {
		return
	}
	m.reg.Counter(MetricRounds).Add(int64(res.Rounds))
	m.reg.Counter("engine_messages_total").Add(int64(res.Messages))
	m.reg.Counter("engine_bits_total").Add(int64(res.Bits))
}
