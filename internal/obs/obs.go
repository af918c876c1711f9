// Package obs is the repository's observability layer: a typed event
// stream and a metrics registry designed around two hard constraints of
// the simulation stack.
//
// Zero overhead when off. Every instrumentation site is guarded by a nil
// check on a Sink or metric handle, events are fixed-size value structs
// (no heap pointers), and the Ring sink stores them into a preallocated
// buffer — so the engine's steady-state round loop stays allocation-free
// with observability disabled, and allocation-bounded with it enabled
// (pinned by internal/dynet's alloc regression tests).
//
// Determinism. Observability output is part of an execution's artifact:
// two runs from the same seed must emit byte-identical event logs and
// metric expositions at any sweep worker count. The package therefore
// never iterates maps (enforced by dynlint's obsdeterminism rule),
// timestamps nothing with the wall clock (rounds are the only clock),
// and exports registries in sorted name order.
//
// The event vocabulary follows the paper's own progress measures: rounds
// and per-round sender/bit counts (the CONGEST accounting of Section 2),
// the phase/lock state machine of the Theorem 8 LEADERELECT protocol,
// and the spoiled-node schedule of Lemmas 3-4 that drives the two-party
// reduction. Exporters turn captured streams into JSONL logs, a
// Prometheus-style text exposition, and Chrome trace-event JSON that
// loads in Perfetto (tracks are nodes, spans are protocol phases).
package obs

import "sync"

// Kind is the type tag of an Event.
type Kind uint8

// Event kinds. KindCustom events are distinguished by their interned
// Name; all other kinds have a fixed field layout documented on Event.
const (
	// KindRoundStart marks the beginning of engine round Round.
	KindRoundStart Kind = iota
	// KindRoundEnd closes a round; A = sender count, B = payload bits.
	KindRoundEnd
	// KindSend records one sent message; Node = sender, A = payload bits.
	KindSend
	// KindDecide records a node's first decided output; A = the output.
	KindDecide
	// KindPhaseEnter records a protocol phase boundary; A = phase,
	// B = subphase index, Name = the subphase label.
	KindPhaseEnter
	// KindLockAcquire records a node accepting a lock; A = the lock key.
	KindLockAcquire
	// KindLockRollback records a lock being voided; A = the lock key.
	KindLockRollback
	// KindSpoilMark records the round from whose beginning Node is
	// spoiled for the party identified by Track (Lemmas 3-4).
	KindSpoilMark
	// KindFault records one injected fault (internal/faults); Name is
	// the fault name ("drop", "dup", "corrupt", "crash", "rejoin",
	// "edge_cut"), Node the affected node (the receiver for delivery
	// faults, the crashed node, or the lower edge endpoint), A the peer
	// (sender id or upper endpoint; -1 when unused), and B the detail
	// (the flipped bit index for "corrupt"; 0 otherwise).
	KindFault
	// KindSpanBegin opens a logical span named by Name on lane
	// (Track, Node); Round is the span's position on its clock (engine
	// rounds, sweep cell indices, or serve milliseconds — the producer
	// picks the clock, see Span), and A carries a producer-defined
	// argument (-1 when unused).
	KindSpanBegin
	// KindSpanEnd closes the innermost open span with the same
	// (Track, Node, Name) lane as its KindSpanBegin; A carries a
	// producer-defined result argument (-1 when unused).
	KindSpanEnd
	// KindFrontier is a flood-progress sample; A = nodes newly informed
	// this round, B = total informed after the round.
	KindFrontier
	// KindCustom is a protocol-defined event named by Name.
	KindCustom

	numKinds
)

var kindNames = [numKinds]string{
	"round_start",
	"round_end",
	"send",
	"decide",
	"phase_enter",
	"lock_acquire",
	"lock_rollback",
	"spoil_mark",
	"fault",
	"span_begin",
	"span_end",
	"frontier",
	"custom",
}

// String returns the stable wire name of the kind ("phase_enter", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one observation. It is a fixed-size value with no heap
// pointers, so emitting one costs no allocation and sinks may store
// events by plain assignment. Field meaning per kind is documented on
// the Kind constants; Track is a secondary grouping id (a reduction
// party, a subnetwork, ...) and 0 when unused.
type Event struct {
	Kind  Kind
	Round int32
	Node  int32
	Track int32
	A, B  int64
	Name  Key
}

// Sink receives events. Emit is called from the goroutine driving the
// simulation; implementations need not be safe for concurrent use (the
// engine steps every machine on the goroutine that called Run, so its
// own emissions and those of instrumented protocols are sequential and
// in a deterministic order).
type Sink interface {
	Emit(Event)
}

// Key is an interned event/metric name. The zero Key is the empty name.
// Numeric key values depend on interning order and are process-local;
// exporters always resolve them back to strings.
type Key int32

// interner is the process-global name table. It only ever appends, and
// lookups never iterate the map, so concurrent interning from parallel
// sweep cells stays deterministic in everything observable (the names).
var interner = struct {
	sync.Mutex
	ids   map[string]Key
	names []string
}{
	ids:   map[string]Key{"": 0},
	names: []string{""},
}

// Intern returns the stable in-process Key for name, creating it on
// first use. Interning is cheap but takes a lock; instrumentation sites
// should intern once (package init or construction time), not per event.
func Intern(name string) Key {
	interner.Lock()
	defer interner.Unlock()
	if k, ok := interner.ids[name]; ok {
		return k
	}
	k := Key(len(interner.names))
	interner.names = append(interner.names, name)
	interner.ids[name] = k
	return k
}

// String resolves the interned name ("" for the zero Key or unknown ids).
func (k Key) String() string {
	interner.Lock()
	defer interner.Unlock()
	if k >= 0 && int(k) < len(interner.names) {
		return interner.names[k]
	}
	return ""
}
