package dynet

import (
	"dyndiam/internal/faults"
	"dyndiam/internal/graph"
	"dyndiam/internal/obs"
)

// Engine executes a protocol over a dynamic network. Configure the fields,
// then call Run (or RunFlood). An Engine is single-use per execution.
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
	// cores one cell per goroutine instead: harness.Sweep's zero value
	// runs GOMAXPROCS cells at a time (Sweep.WorkersFor).
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
// connectivity). Run is the round kernel (RunNodes) over e.Machines.
func (e *Engine) Run(maxRounds int) (*Result, error) {
	return e.RunNodes((*engineNodes)(e), len(e.Machines), maxRounds)
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

// engineNodes is the kernel's Nodes over the Engine's in-process
// machines, stepped and delivered to in ascending node order on the
// goroutine that called Run.
type engineNodes Engine

// Step implements Nodes.
//
//lint:hotpath
func (e *engineNodes) Step(rd *Round) error {
	for v, m := range e.Machines {
		if rd.Down == nil || !rd.Down[v] {
			rd.Actions[v], rd.Outgoing[v] = m.Step(rd.R) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		}
	}
	return nil
}

// Deliver implements Nodes.
//
//lint:hotpath
func (e *engineNodes) Deliver(rd *Round) error {
	for v, m := range e.Machines {
		if rd.Actions[v] == Receive && (rd.Down == nil || !rd.Down[v]) {
			m.Deliver(rd.R, rd.Inboxes[v]) //lint:allow hotpathalloc machines own their per-step allocation budget (pinned by AllocsPerRun tests)
		}
	}
	return nil
}

// Output implements Nodes.
func (e *engineNodes) Output(v int) (int64, bool) { return e.Machines[v].Output() }

// Done implements Nodes with Terminated, AllDecided by default.
func (e *engineNodes) Done() bool {
	if e.Terminated == nil {
		return AllDecided(e.Machines)
	}
	return e.Terminated(e.Machines)
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
