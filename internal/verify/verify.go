// Package verify is the problem table and its auditors. Every problem the
// repository runs is posed once, as one row of the table: its name, the
// protocol that solves it, the per-node inputs of an n-node instance, the
// node whose decision ends a run (or all nodes), and the audit that judges
// a finished run. The rows are the paper's CFLOOD, CONSENSUS and
// LEADERELECT, each with its own notion of error (MODEL.md §7), and the
// known-D aggregates that share their machinery.
//
// Every runner reads the table: the harness sweeps and degradation
// trials, cmd/chaos, advsearch, wire, cmd/dynsim and cmd/dynnode. So
// "did the protocol actually solve the problem" has one answer. The
// auditors are pure functions over results.
package verify

import (
	"fmt"
	"strings"

	"dyndiam/internal/dynet"
	"dyndiam/internal/protocols/consensus"
	"dyndiam/internal/protocols/counting"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/protocols/hearfrom"
	"dyndiam/internal/protocols/leader"
)

// Problem is one row of the problem table.
type Problem struct {
	// Name is the row's key: the -proto value of cmd/dynsim and
	// cmd/dynnode, and wire.RunSpec.Proto.
	Name string
	// Protocol builds the machines that solve the problem.
	Protocol dynet.Protocol
	// Input is node v's input; nil means every input is 0.
	Input func(v int) int64
	// TermNode is the node whose decision ends a run, or -1 when a run
	// ends once every node has decided.
	TermNode int
	// Audit judges a finished run of the protocol on inputs: nil when the
	// outputs solve the problem.
	Audit Audit
}

// Audit judges a finished run: its inputs, its machines after the run,
// and the engine's result.
type Audit func(inputs []int64, ms []dynet.Machine, res *dynet.Result) error

// floodSource holds the flood token, and its confirmation ends the run.
const floodSource = 0

// estimateTolerance is the relative error within which every node's
// estimate must fall for the estimation problems.
const estimateTolerance = 0.45

// problems is the table. It is a slice, not a map, because the wire frame
// path reads it and map iteration is banned there.
var problems = []Problem{
	{"cflood", flood.CFlood{}, token, floodSource, flooded},
	{"pflood", flood.PFlood{}, token, floodSource, flooded},
	{"consensus", consensus.KnownD{}, parity, -1, consensusOnHighest},
	{"vialeader", consensus.ViaLeader{}, parity, -1, consensusOnHighest},
	{"leader", leader.Protocol{}, nil, -1, func(in []int64, _ []dynet.Machine, res *dynet.Result) error {
		return Leader(res, len(in), true)
	}},
	{"estimate", counting.EstimateN{}, nil, -1, func(in []int64, _ []dynet.Machine, res *dynet.Result) error {
		return EstimateWithin(res, len(in), estimateTolerance)
	}},
	{"sum", counting.SumEstimate{}, func(v int) int64 { return int64(v % 5) }, -1, sumWithin},
	{"max", hearfrom.Max{}, func(v int) int64 { return int64((v * 7919) % 100003) }, -1, onResult(MaxFunction)},
	{"hearfrom", hearfrom.HearFrom{}, nil, -1, onResult(HearFrom)},
	{"hearfromexact", hearfrom.Exact{}, nil, -1, onResult(HearFrom)},
	{"majority", counting.MajorityProbe{}, nil, -1, onResult(Majority)},
}

func token(v int) int64 {
	if v == floodSource {
		return 1
	}
	return 0
}

func parity(v int) int64 { return int64(v % 2) }

func flooded(inputs []int64, ms []dynet.Machine, res *dynet.Result) error {
	return CFlood(inputs, ms, res, floodSource)
}

// consensusOnHighest adds to the CONSENSUS specification that the
// decision is the highest id's input, which both consensus protocols
// decide in failure-free runs: KnownD gossips it, ViaLeader elects its
// holder.
func consensusOnHighest(inputs []int64, _ []dynet.Machine, res *dynet.Result) error {
	if err := Consensus(inputs, res); err != nil {
		return err
	}
	if want := inputs[len(inputs)-1]; res.Outputs[0] != want {
		return fmt.Errorf("verify: decided %d, want the highest id's input %d", res.Outputs[0], want)
	}
	return nil
}

func sumWithin(inputs []int64, _ []dynet.Machine, res *dynet.Result) error {
	var sum int64
	for _, w := range inputs {
		sum += w
	}
	return EstimateWithin(res, int(sum), estimateTolerance)
}

// onResult is an auditor that reads only the inputs and the result.
func onResult(f func(inputs []int64, res *dynet.Result) error) Audit {
	return func(inputs []int64, _ []dynet.Machine, res *dynet.Result) error { return f(inputs, res) }
}

// Names lists the problems in table order.
func Names() []string {
	names := make([]string, len(problems))
	for i, p := range problems {
		names[i] = p.Name
	}
	return names
}

// Lookup returns the named problem.
func Lookup(name string) (Problem, error) {
	for _, p := range problems {
		if p.Name == name {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("verify: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
}

// MustLookup returns the named problem and panics when the table has no
// such row: for callers that name a row known when the code is compiled.
func MustLookup(name string) Problem {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Machines returns the inputs of an n-node instance and one machine per
// node, with public coins rooted at seed.
func (p Problem) Machines(n int, seed uint64, extra map[string]int64) ([]int64, []dynet.Machine) {
	inputs := make([]int64, n)
	for v := range inputs {
		if p.Input != nil {
			inputs[v] = p.Input(v)
		}
	}
	return inputs, dynet.NewMachines(p.Protocol, n, inputs, seed, extra)
}

// Terminated returns the Engine.Terminated predicate of a run: nil, the
// engine's all-nodes-decided default, or TermNode's decision.
func (p Problem) Terminated() func([]dynet.Machine) bool {
	if p.TermNode < 0 {
		return nil
	}
	return dynet.NodeDecided(p.TermNode)
}

// Termination checks that every node listed in who (nil = all) decided.
// The audit is deterministic: nodes are scanned in ascending id order (for
// nil who, explicitly by index), so the error always names the lowest
// undecided node regardless of how Result is stored.
func Termination(res *dynet.Result, who []int) error {
	if who == nil {
		for v := 0; v < len(res.Decided); v++ {
			if !res.Decided[v] {
				return fmt.Errorf("verify: node %d did not decide", v)
			}
		}
		return nil
	}
	for _, v := range who {
		if !res.Decided[v] {
			return fmt.Errorf("verify: node %d did not decide", v)
		}
	}
	return nil
}

// Agreement checks that all decided nodes output the same value and
// returns it. At least one node must have decided.
//
// The reference value is pinned to the lowest-id decided node and the
// scan ascends from there, so both the returned value and the node named
// in a mismatch error are deterministic functions of the execution — the
// audit itself must never inject iteration-order nondeterminism into
// reports that experiments and tests compare across runs.
func Agreement(res *dynet.Result) (int64, error) {
	ref := -1
	for v := 0; v < len(res.Decided); v++ {
		if res.Decided[v] {
			ref = v
			break
		}
	}
	if ref == -1 {
		return 0, fmt.Errorf("verify: no node decided")
	}
	first := res.Outputs[ref]
	for v := ref + 1; v < len(res.Decided); v++ {
		if res.Decided[v] && res.Outputs[v] != first {
			return 0, fmt.Errorf("verify: node %d decided %d, but node %d decided %d",
				v, res.Outputs[v], ref, first)
		}
	}
	return first, nil
}

// Validity checks that value was some node's input.
func Validity(inputs []int64, value int64) error {
	for _, in := range inputs {
		if in == value {
			return nil
		}
	}
	return fmt.Errorf("verify: decided value %d was nobody's input", value)
}

// Consensus checks termination + agreement + validity in one call.
func Consensus(inputs []int64, res *dynet.Result) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	v, err := Agreement(res)
	if err != nil {
		return err
	}
	return Validity(inputs, v)
}

// CFlood checks the CFLOOD specification: the source decided, and at the
// moment of audit every machine outputs the source's token ("by the time
// V outputs, the token has been received by all nodes"). A flood machine
// outputs once it holds a token, so this catches both an uninformed node
// and one that holds a corrupted token.
func CFlood(inputs []int64, ms []dynet.Machine, res *dynet.Result, source int) error {
	if !res.Decided[source] {
		return fmt.Errorf("verify: source %d did not confirm", source)
	}
	for v, m := range ms {
		out, ok := m.Output()
		if !ok {
			return fmt.Errorf("verify: node %d uninformed at confirmation", v)
		}
		if out != inputs[source] {
			return fmt.Errorf("verify: node %d holds %d, not the token %d", v, out, inputs[source])
		}
	}
	return nil
}

// Leader checks leader election: termination, unanimity, and that the
// elected id is a real node. wantMax additionally requires the canonical
// winner (the maximum id), which holds in failure-free runs of the
// Section 7 protocol.
func Leader(res *dynet.Result, n int, wantMax bool) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	id, err := Agreement(res)
	if err != nil {
		return err
	}
	if id < 0 || id >= int64(n) {
		return fmt.Errorf("verify: elected id %d outside [0, %d)", id, n)
	}
	if wantMax && id != int64(n-1) {
		return fmt.Errorf("verify: elected %d, want the maximum id %d", id, n-1)
	}
	return nil
}

// MaxFunction checks the MAX problem: all nodes decided the true maximum.
func MaxFunction(inputs []int64, res *dynet.Result) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	var want int64
	for i, in := range inputs {
		if i == 0 || in > want {
			want = in
		}
	}
	got, err := Agreement(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("verify: MAX decided %d, true maximum %d", got, want)
	}
	return nil
}

// EstimateWithin checks that every node's output is within rel of target.
func EstimateWithin(res *dynet.Result, target int, rel float64) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	lo := float64(target) * (1 - rel)
	hi := float64(target) * (1 + rel)
	for v, out := range res.Outputs {
		if float64(out) < lo || float64(out) > hi {
			return fmt.Errorf("verify: node %d estimated %d, outside %.1f%% of %d",
				v, out, rel*100, target)
		}
	}
	return nil
}

// HearFrom checks HEAR-FROM-N-NODES: every node decided, and decided that
// it heard from all len(inputs) nodes.
func HearFrom(inputs []int64, res *dynet.Result) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	for v, out := range res.Outputs {
		if out != int64(len(inputs)) {
			return fmt.Errorf("verify: node %d heard from %d nodes, want %d", v, out, len(inputs))
		}
	}
	return nil
}

// Majority checks one-sided majority counting: every node decided, and a
// node claims (outputs 1) only when a strict majority holds its input.
// Silence is always allowed.
func Majority(inputs []int64, res *dynet.Result) error {
	if err := Termination(res, nil); err != nil {
		return err
	}
	for v, out := range res.Outputs {
		if out != 1 {
			continue
		}
		holders := 0
		for _, in := range inputs {
			if in == inputs[v] {
				holders++
			}
		}
		if 2*holders <= len(inputs) {
			return fmt.Errorf("verify: node %d claims a majority for %d, held by %d of %d",
				v, inputs[v], holders, len(inputs))
		}
	}
	return nil
}
