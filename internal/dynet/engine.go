package dynet

import (
	"fmt"

	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Engine executes a protocol over a dynamic network. Configure the fields,
// then call Run or RunUntil. An Engine is single-use per execution.
type Engine struct {
	Machines []Machine
	Adv      Adversary

	// Budget is the per-message bit budget; zero means Budget(len(Machines)).
	Budget int
	// CheckConnectivity makes the engine verify each round's topology is
	// connected, as the model requires of the adversary.
	CheckConnectivity bool
	// Workers is ignored; it remains so callers that set it still
	// compile. The engine steps and delivers to the machines on the
	// goroutine that called Run, in ascending node order. Sweeps use
	// cores one cell per goroutine instead (harness.Sweep.Workers).
	Workers int
	// Trace, when non-nil, records per-round topologies and statistics.
	Trace *Trace
	// Obs, when non-nil, receives typed events as the run progresses:
	// RoundStart/RoundEnd per round, Send per sending node, and Decide
	// the first round each node's output becomes available. Protocol
	// machines emit their own phase and lock events through their own
	// sinks; the engine only reports what it can see. A nil Obs keeps
	// the round loop exactly on the zero-allocation path pinned by the
	// alloc regression tests. Events are emitted from the goroutine that
	// called Run, so a single-goroutine sink (obs.Ring) is safe.
	Obs obs.Sink
	// Metrics, when non-nil, accumulates run totals (engine_rounds_total,
	// engine_messages_total, engine_bits_total) and per-round histograms
	// (engine_round_senders, engine_round_bits). Nil means no metric work.
	Metrics *obs.Registry
	// ObsRoundStride subsamples the flood fast path's round-aggregated
	// event stream: with stride k only every k-th round emits its
	// round_end/frontier/diff_ops aggregate (the final round always
	// does), which bounds event volume at huge N. 0 or 1 means every
	// round. Metrics are never subsampled, and the message path ignores
	// the stride (it reports individual sends, not aggregates).
	ObsRoundStride int

	// Plan, when non-nil and enabled, injects deterministic seeded faults
	// between the adversary's topology and message delivery: crash/rejoin
	// outages freeze nodes, edge cuts remove topology edges (possibly
	// disconnecting the round — the adversary's own graph is still held
	// to the model's connectivity obligation), and per-delivery faults
	// drop, duplicate, or bit-corrupt message copies. Every injected
	// fault is counted in Metrics (faults_*_total) and emitted to Obs as
	// a KindFault event. A nil (or all-zero) Plan keeps the round loop
	// exactly on the zero-allocation clean path pinned by the alloc
	// regression tests.
	Plan *faults.Plan

	// Terminated, when non-nil, overrides the default all-nodes-decided
	// termination predicate (e.g. CFLOOD terminates when the source
	// outputs).
	Terminated func(ms []Machine) bool
}

// Result summarizes an execution.
type Result struct {
	// Rounds is the round number at whose end the termination predicate
	// first held, or MaxRounds if it never did.
	Rounds int
	// Done reports whether the termination predicate held by the end.
	Done bool
	// Messages is the number of messages sent (one per sending node per
	// round, whether or not anyone received it).
	Messages int
	// Bits is the total number of payload bits sent.
	Bits int
	// Outputs holds each node's output value; valid only for nodes whose
	// machine reported termination (Decided[v]).
	Outputs []int64
	Decided []bool
}

// Run executes up to maxRounds rounds, stopping early when the termination
// predicate holds. It returns an error on model violations (bit budget or
// connectivity).
//
// The round loop is steady-state allocation-free: inbox backing arrays are
// reused across rounds, inboxes are assembled by an in-place insertion sort
// over the already-ascending neighbor order (no sort.Slice closure), and
// the connectivity check runs over preallocated scratch buffers. Per-round
// allocations, if any, come from the machines or the adversary. The
// hotpathalloc rule enforces this interprocedurally; setup-phase and
// error-path lines carry documented allows.
//
//lint:hotpath
func (e *Engine) Run(maxRounds int) (*Result, error) {
	n := len(e.Machines)
	if n == 0 {
		return &Result{Done: true}, nil //lint:allow hotpathalloc empty-engine early return, not the round loop
	}
	budget := e.Budget
	if budget == 0 {
		budget = Budget(n)
	}
	terminated := e.Terminated
	if terminated == nil {
		terminated = AllDecided
	}

	res := &Result{Rounds: maxRounds} //lint:allow hotpathalloc setup phase, before the round loop
	actions := make([]Action, n)      //lint:allow hotpathalloc setup phase, before the round loop
	outgoing := make([]Message, n)    //lint:allow hotpathalloc setup phase, before the round loop
	inboxes := make([][]Message, n)   //lint:allow hotpathalloc setup phase, before the round loop
	var dist, queue []int32
	if e.CheckConnectivity {
		dist = make([]int32, n)  //lint:allow hotpathalloc setup phase, before the round loop
		queue = make([]int32, n) //lint:allow hotpathalloc setup phase, before the round loop
	}
	observing := e.Obs != nil
	var decided []bool
	if observing {
		decided = make([]bool, n) //lint:allow hotpathalloc setup phase, before the round loop
		for v, m := range e.Machines {
			_, decided[v] = m.Output()
		}
	}
	sendersHist := e.Metrics.Histogram("engine_round_senders", RoundHistBounds) //lint:allow hotpathalloc setup-phase registry lookup, amortized across the run
	bitsHist := e.Metrics.Histogram("engine_round_bits", RoundHistBounds)       //lint:allow hotpathalloc setup-phase registry lookup, amortized across the run
	var fs *faultState
	if e.Plan.Enabled() {
		fs = newFaultState(e.Plan, e.Obs, e.Metrics, n) //lint:allow hotpathalloc setup phase: fault state preallocates its round buffers
	}

	for r := 1; r <= maxRounds; r++ {
		if observing {
			e.Obs.Emit(obs.Event{Kind: obs.KindRoundStart, Round: int32(r)})
		}
		// Phase 0 (faults only): advance the crash schedule so down nodes
		// are frozen — not stepped, not sending, not receiving — for the
		// whole round.
		var down []bool
		if fs != nil {
			fs.beginRound(r)
			down = fs.down
		}
		// Phase 1: coin flips and send/receive commitment.
		e.step(r, actions, outgoing, down)
		roundSenders, roundBits := 0, 0
		for v := 0; v < n; v++ {
			if actions[v] == Send {
				if outgoing[v].NBits > budget {
					return nil, budgetError(v, r, outgoing[v].NBits, budget) //lint:allow hotpathalloc error path terminates the run
				}
				roundSenders++
				roundBits += outgoing[v].NBits
				if observing {
					e.Obs.Emit(obs.Event{Kind: obs.KindSend, Round: int32(r), Node: int32(v), A: int64(outgoing[v].NBits)})
				}
			}
		}
		res.Messages += roundSenders
		res.Bits += roundBits
		sendersHist.Observe(int64(roundSenders))
		bitsHist.Observe(int64(roundBits))

		// Phase 2: the adversary fixes the topology knowing the actions.
		g := e.Adv.Topology(r, actions) //lint:allow hotpathalloc adversaries own their per-round topology allocation budget
		if g == nil || g.N() != n {
			return nil, fmt.Errorf("dynet: adversary returned topology over %v nodes, want %d", gN(g), n) //lint:allow hotpathalloc error path terminates the run
		}
		if e.CheckConnectivity && !g.ConnectedInto(dist, queue) {
			return nil, fmt.Errorf("dynet: adversary returned disconnected topology in round %d", r) //lint:allow hotpathalloc error path terminates the run
		}
		if fs != nil && fs.edgeFaults {
			// The adversary met its connectivity obligation above; the
			// fault layer may now legitimately disconnect the round.
			g = fs.perturb(r, g)
		}

		// Phase 3: delivery to receiving nodes.
		if fs != nil && (fs.deliveryFaults || fs.nodeFaults) {
			fs.collect(r, g, actions, outgoing, inboxes)
		} else {
			collect(g, actions, outgoing, inboxes)
		}
		e.deliver(r, actions, inboxes, down)

		if e.Trace != nil {
			e.Trace.record(r, g, actions, outgoing) //lint:allow hotpathalloc tracing is opt-in; the Cloner amortizes via arenas
		}

		if observing {
			for v, m := range e.Machines {
				if !decided[v] {
					if out, ok := m.Output(); ok {
						decided[v] = true
						e.Obs.Emit(obs.Event{Kind: obs.KindDecide, Round: int32(r), Node: int32(v), A: out})
					}
				}
			}
			e.Obs.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: int32(r), A: int64(roundSenders), B: int64(roundBits)})
		}

		if terminated(e.Machines) {
			res.Rounds = r
			res.Done = true
			break
		}
	}

	res.Outputs = make([]int64, n) //lint:allow hotpathalloc post-loop result assembly
	res.Decided = make([]bool, n)  //lint:allow hotpathalloc post-loop result assembly
	for v, m := range e.Machines {
		res.Outputs[v], res.Decided[v] = m.Output()
	}
	if !res.Done && maxRounds < 1 {
		// The loop never ran, so the predicate was never evaluated; ask
		// once. (After a full loop the last in-loop evaluation is already
		// authoritative — machines do not change between rounds.)
		res.Done = terminated(e.Machines)
	}
	if e.Metrics != nil {
		e.Metrics.Counter("engine_rounds_total").Add(int64(res.Rounds))     //lint:allow hotpathalloc post-loop metrics flush
		e.Metrics.Counter("engine_messages_total").Add(int64(res.Messages)) //lint:allow hotpathalloc post-loop metrics flush
		e.Metrics.Counter("engine_bits_total").Add(int64(res.Bits))         //lint:allow hotpathalloc post-loop metrics flush
	}
	return res, nil
}

// RoundHistBounds buckets per-round sender and bit totals geometrically;
// shared so merged sweep registries agree on one bucket layout.
var RoundHistBounds = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

func gN(g *graph.Graph) interface{} {
	if g == nil {
		return "nil"
	}
	return g.N()
}

// AllDecided is the default termination predicate: every node has output.
func AllDecided(ms []Machine) bool {
	for _, m := range ms {
		if _, ok := m.Output(); !ok {
			return false
		}
	}
	return true
}

// NodeDecided returns a termination predicate that holds once node v has
// output — the CFLOOD termination condition for source v.
func NodeDecided(v int) func([]Machine) bool {
	return func(ms []Machine) bool {
		_, ok := ms[v].Output()
		return ok
	}
}

// step runs the commitment phase. down, when non-nil, marks crashed
// nodes: their machines are not stepped (a crash freezes state) and they
// commit to a silent Receive so the adversary and the accounting see no
// send from them.
//
//lint:hotpath
func (e *Engine) step(r int, actions []Action, outgoing []Message, down []bool) {
	for v, m := range e.Machines {
		if down != nil && down[v] {
			actions[v], outgoing[v] = Receive, Message{}
			continue
		}
		actions[v], outgoing[v] = m.Step(r) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		outgoing[v].From = v
	}
}

// collect builds each receiving node's inbox: the messages of its sending
// neighbors, ordered by sender id. Adjacency lists are sorted ascending, so
// the inbox comes out ordered already; sortByFrom is a pure-safety pass
// that costs one comparison per message on that sorted input.
func collect(g *graph.Graph, actions []Action, outgoing []Message, inboxes [][]Message) {
	for v := range inboxes {
		inbox := inboxes[v][:0]
		if actions[v] == Receive {
			for _, u := range g.Adj(v) {
				if actions[u] == Send {
					inbox = append(inbox, outgoing[u])
				}
			}
			sortByFrom(inbox)
		}
		inboxes[v] = inbox
	}
}

// sortByFrom sorts messages by sender id with an in-place insertion sort:
// O(k) on the already-ascending inboxes the engine assembles, and free of
// the closure allocation sort.Slice would pay per node per round.
func sortByFrom(msgs []Message) {
	for i := 1; i < len(msgs); i++ {
		if msgs[i-1].From <= msgs[i].From {
			continue
		}
		m := msgs[i]
		j := i
		for j > 0 && msgs[j-1].From > m.From {
			msgs[j] = msgs[j-1]
			j--
		}
		msgs[j] = m
	}
}

// deliver hands each receiving node its inbox. down, when non-nil, marks
// crashed nodes, which are skipped: a crashed node hears nothing.
//
//lint:hotpath
func (e *Engine) deliver(r int, actions []Action, inboxes [][]Message, down []bool) {
	for v, m := range e.Machines {
		if actions[v] == Receive && !(down != nil && down[v]) {
			m.Deliver(r, inboxes[v]) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		}
	}
}
