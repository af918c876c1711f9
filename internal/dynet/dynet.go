// Package dynet implements the paper's dynamic-network model (Section 2):
//
//   - N nodes with unique ids execute a synchronous randomized protocol,
//     starting simultaneously at round 1 (round 0 does nothing).
//   - In each round every node first flips its coins and commits to either
//     sending one message of O(log N) bits or receiving.
//   - An adversary then fixes the topology of the round — an arbitrary
//     connected undirected graph — knowing the protocol, all coin flips so
//     far, and node states, but not future coins.
//   - A message sent is received by exactly the sender's neighbors that
//     chose to receive in that round. Nodes do not know their neighbors
//     unless they receive from them.
//
// The package provides the per-node Machine abstraction, the round Engine,
// CONGEST bit-budget enforcement, execution traces, and the
// dynamic-diameter computation based on the causal relation
// (U, r) ⇝ (V, r+z).
package dynet

import (
	"fmt"

	"dyndiam/internal/rng"
)

// Action is a node's per-round choice in the send/receive model.
type Action uint8

const (
	// Receive means the node listens this round and gets the messages of
	// all sending neighbors.
	Receive Action = iota
	// Send means the node broadcasts one message to its receiving
	// neighbors and hears nothing itself.
	Send
)

// String implements fmt.Stringer for debugging output.
func (a Action) String() string {
	if a == Send {
		return "send"
	}
	return "recv"
}

// Message is a protocol message on the wire. Payload holds NBits valid bits
// in bitio layout. From is filled in by the engine at delivery time.
//
// Payload bytes are immutable once Step returns: neither the sender nor
// any layer the message passes through writes to them afterwards (the
// fault layer corrupts a copy), and a caller may keep the slice after the
// round. twoparty.Run relies on this: the inboxes it records copy message
// headers but not payload bytes. A machine that reused one bitio.Writer's
// buffer across rounds through Reset would rewrite payloads such holders
// still read; protocols keep one Writer per machine and start each
// message with Next, which writes only past the payloads handed out.
// TestPayloadsImmutable pins the rule end to end.
type Message struct {
	From    int
	Payload []byte
	NBits   int
}

// Machine is the state machine one node runs. Implementations must be
// deterministic functions of (construction Config, delivered messages):
// all randomness must come from the Config's coin source so that the
// two-party reduction can re-execute any node from public coins.
//
// The engine drives each round r (starting at 1) as:
//
//	act, msg := m.Step(r)        // coin flips + send/receive commitment
//	// adversary fixes the round-r topology knowing all actions
//	if act == Receive { m.Deliver(r, msgsFromSendingNeighbors) }
type Machine interface {
	// Step commits the node's action for round r, returning the outgoing
	// message when the action is Send. The returned Message's From field
	// is ignored.
	Step(r int) (Action, Message)
	// Deliver hands the node the messages sent by its sending neighbors
	// in round r. It is called only on rounds where Step returned
	// Receive, and is called with an empty slice when no neighbor sent.
	Deliver(r int, msgs []Message)
	// Output reports the node's output value and whether the node has
	// decided (terminated). Once true, it must stay true with the same
	// value. A terminated machine keeps being stepped — the model has no
	// halting; "termination" is the problem-level output event.
	Output() (int64, bool)
}

// Config carries everything a Machine needs at construction.
type Config struct {
	N     int         // number of nodes in the network
	ID    int         // this node's id in [0, N)
	Input int64       // problem input (consensus bit, token, ...)
	Coins *rng.Source // this node's private view of the public coin tape
	// Budget is the per-message bit budget (CONGEST). Machines must not
	// exceed it; the engine enforces it.
	Budget int
	// Extra carries protocol-specific parameters (e.g. a diameter bound
	// or the estimate N'). Protocols document which keys they use.
	Extra map[string]int64
}

// ExtraInt returns cfg.Extra[key], or def when absent.
func (cfg Config) ExtraInt(key string, def int64) int64 {
	if v, ok := cfg.Extra[key]; ok {
		return v
	}
	return def
}

// Protocol builds the machine for each node of a network.
type Protocol interface {
	// Name identifies the protocol in traces and experiment tables.
	Name() string
	// NewMachine returns the state machine for the node described by cfg.
	NewMachine(cfg Config) Machine
}

// Budget returns the CONGEST per-message bit budget used throughout this
// repository for an N-node network: Θ(log N) with constants generous enough
// for the richest message layout we use (the counting subroutine), yet tight
// enough that packing more than O(1) ids in one message is impossible.
func Budget(n int) int {
	w := 1
	for v := n; v > 0; v >>= 1 {
		w++
	}
	return 8*w + 48
}

// NewMachines instantiates one machine per node. inputs may be nil (all
// zero); extra may be nil and is shared across machines.
func NewMachines(p Protocol, n int, inputs []int64, seed uint64, extra map[string]int64) []Machine {
	root := rng.New(seed)
	budget := Budget(n)
	ms := make([]Machine, n)
	for v := 0; v < n; v++ {
		var in int64
		if inputs != nil {
			in = inputs[v]
		}
		ms[v] = p.NewMachine(Config{
			N:      n,
			ID:     v,
			Input:  in,
			Coins:  root.Split(uint64(v) + 1),
			Budget: budget,
			Extra:  extra,
		})
	}
	return ms
}

// budgetError describes a CONGEST violation.
func budgetError(node, round, nbits, budget int) error {
	return fmt.Errorf("dynet: node %d exceeded bit budget in round %d: %d > %d bits",
		node, round, nbits, budget)
}
