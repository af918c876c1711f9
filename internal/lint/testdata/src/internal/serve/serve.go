// Package serve is the determinism fixture of the serving row: a
// content-addressed cache walked in map order is one refactor away from
// order-dependent listings, and a clock in a result body breaks content
// addressing.
package serve

import "time"

type entry struct {
	body []byte
	done bool
}

type cache struct {
	entries map[string]*entry
	order   []string
}

// EvictAll marks every entry undone through keyed writes; the visit
// order is still randomized map order.
func EvictAll(c *cache) {
	for key := range c.entries { // want:determinism
		c.entries[key].done = false
	}
}

// StampBody puts the wall clock into a result body: the same job would
// serve different bytes on every execution.
func StampBody(e *entry) {
	e.body = time.Now().AppendFormat(e.body, "15:04:05") // want:determinism
}

// List walks the insertion-order slice and consults the map only for
// keyed lookups, so listings are deterministic.
func List(c *cache) []*entry {
	var out []*entry
	for _, key := range c.order {
		out = append(out, c.entries[key])
	}
	return out
}

// Latency is a queue-edge clock read that never reaches a result body,
// and says so.
func Latency(start time.Time) time.Duration {
	return time.Since(start) //lint:allow determinism latency metric, never part of a result
}
