// Package obs is the determinism fixture of a strict row. Every map
// iteration below leaks no order in the maporder sense, yet the
// observability layer bans them all; the one that does leak order is
// still one finding, because maporder skips strict rows.
package obs

import "time"

type event struct {
	round int
	name  string
}

type sink struct{ events []event }

func (s *sink) emit(e event) { s.events = append(s.events, e) }

// Total folds counter values commutatively: an export path summing a map
// is one refactor away from printing it.
func Total(counters map[string]int64) int64 {
	var total int64
	for _, v := range counters { // want:determinism
		total += v
	}
	return total
}

// Flush emits one event per gauge, through a method maporder does not
// track; the emission order is still randomized map order.
func Flush(s *sink, gauges map[string]int64) {
	for name := range gauges { // want:determinism
		s.emit(event{name: name})
	}
}

// Names leaks map order into a slice: one determinism finding on the
// loop, no maporder twin on the append.
func Names(gauges map[string]int64) []string {
	var out []string
	for name := range gauges { // want:determinism
		out = append(out, name)
	}
	return out
}

// Stamp timestamps an event with the wall clock instead of a round.
func Stamp(s *sink) {
	s.emit(event{round: int(time.Now().Unix())}) // want:determinism
}

// Snapshot walks the insertion-order slice and consults the map only
// for keyed lookups, the pattern the layer uses in place of iteration.
func Snapshot(order []string, values map[string]int64) []event {
	out := make([]event, 0, len(order))
	for _, name := range order {
		out = append(out, event{round: int(values[name]), name: name})
	}
	return out
}
