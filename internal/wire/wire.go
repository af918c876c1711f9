// Package wire is the distributed execution layer: it runs the same
// protocol Machines the in-process Engine runs, but as real per-node
// processes synchronized over TCP by a coordinator-driven round barrier.
//
// The layer's contract is distributed equivalence: under the same RunSpec
// (seeds, adversary, fault spec), a distributed execution produces
// byte-identical per-round traces, per-node outputs, message/bit totals,
// obs event streams, and error texts as dynet.Engine.Run. The guarantee
// is structural, not aspirational — the coordinator runs the engine's own
// round kernel (dynet.Engine.RunNodes) and supplies only how the nodes
// are reached, as frames; and every wire-level fault decision is a pure
// function of (seed, round, node, edge) through internal/faults, so the
// fault-wrapping socket layer and the kernel's fault accounting cannot
// disagree. RunInProcess and Diff turn the contract into a golden
// differential test.
//
// Topology: N node processes (RunNode) dial one coordinator (Run). The
// coordinator owns the adversary, CONGEST budget enforcement (validated
// on ACT frames as they arrive off the socket), connectivity checking,
// fault accounting, tracing, metrics, and termination; node processes own
// only their Machine. Each round is four frame exchanges: STEP fan-out,
// ACT fan-in (the send/receive commitments), RELAY+DELIVER fan-out (each
// receiver's inbox, faulted on the wire by the FaultListener wrapper),
// and STATUS fan-in (outputs/decided).
//
// Robustness: frames are length-prefixed with CRC-checked records; the
// transport runs per-round deadlines, bounded retry with exponential
// backoff and deterministic jitter (rng.Split), and connection
// re-establishment after resets. A node process killed with SIGKILL
// rejoins after relaunch: the coordinator replays its per-round log
// (down-rounds skipped, post-fault inboxes redelivered), the machine is
// rebuilt deterministically, and the run resumes from the round barrier.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/verify"
)

// RunSpec is the complete, serializable description of one distributed
// run. The coordinator sends it to every node in the WELCOME frame, so a
// node process needs only (id, coordinator address) on its command line;
// everything else — protocol, inputs, seeds, fault mix — arrives over
// the wire and is identical across the cluster by construction.
type RunSpec struct {
	// Proto names the problem, a row of the verify table (verify.Names).
	Proto string `json:"proto"`
	// N is the node count; node ids are 0..N-1.
	N int `json:"n"`
	// Seed roots the public coin tape (dynet.NewMachines) and the
	// transport's deterministic backoff jitter.
	Seed uint64 `json:"seed"`
	// MaxRounds bounds the execution like Engine.Run's maxRounds.
	MaxRounds int `json:"max_rounds"`
	// CheckConnectivity verifies each round's topology as the model
	// requires of the adversary.
	CheckConnectivity bool `json:"check_connectivity,omitempty"`
	// Adv names the coordinator-side adversary (adversaries.Names).
	// Empty means ring. Node processes ignore it — the topology is the
	// coordinator's.
	Adv string `json:"adv,omitempty"`
	// AdvD is the adversary family's parameter d (see adversaries.Named);
	// below 1 it is 4.
	AdvD int `json:"adv_d,omitempty"`
	// Extra carries protocol parameters (diameter bound, N', ...).
	Extra map[string]int64 `json:"extra,omitempty"`
	// Fault is the injected fault mix, applied at the socket layer by the
	// FaultListener and mirrored by the coordinator's accounting.
	Fault faults.Spec `json:"fault"`
}

// Validate checks the spec the way ParseRunSpec does.
func (s *RunSpec) Validate() error {
	if _, err := verify.Lookup(s.Proto); err != nil {
		return err
	}
	if s.N < 1 {
		return fmt.Errorf("wire: run needs at least one node, got n=%d", s.N)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("wire: negative round budget %d", s.MaxRounds)
	}
	if _, err := s.BuildAdversary(); err != nil {
		return err
	}
	return s.Fault.Validate()
}

// EncodeRunSpec validates and serializes a spec; ParseRunSpec reverses
// it, rejecting unknown fields and invalid fault mixes.
func EncodeRunSpec(s RunSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// ParseRunSpec decodes and validates a serialized RunSpec.
func ParseRunSpec(data []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("wire: invalid run spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}

// Machines instantiates the spec's full machine set, exactly as the
// in-process engine would. Node v of a distributed run owns Machines()[v]
// and nothing else; the shared seed makes every process agree on the
// whole set without communicating.
func (s *RunSpec) Machines() ([]dynet.Machine, error) {
	p, err := verify.Lookup(s.Proto)
	if err != nil {
		return nil, err
	}
	_, ms := p.Machines(s.N, s.Seed, s.Extra)
	return ms, nil
}

// TermNode returns the node whose decision terminates the run, or -1
// for all-nodes-decided — the spec-level form of the engine's
// Terminated predicate.
func (s *RunSpec) TermNode() (int, error) {
	p, err := verify.Lookup(s.Proto)
	if err != nil {
		return 0, err
	}
	return p.TermNode, nil
}

// BuildAdversary constructs the coordinator's adversary from the spec,
// by adversaries.Named. Adversaries are deterministic in (seed, round,
// actions), so the distributed coordinator and the in-process twin, each
// holding a fresh instance, see identical topologies.
func (s *RunSpec) BuildAdversary() (dynet.Adversary, error) {
	name := s.Adv
	if name == "" {
		name = "ring"
	}
	d := s.AdvD
	if d < 1 {
		d = 4
	}
	return adversaries.Named(name, s.N, d, s.Seed)
}
