// Package wire is the determinism fixture of the wire row: a frame path
// walked in map order delivers messages out of the engine's
// ascending-neighbor order, breaking distributed equivalence.
package wire

import (
	"net"
	"time"
)

type frame struct{ round, from int }

type barrier struct {
	pending map[int]*frame // by node id
	nodes   []int          // ascending id order; the sanctioned walk
}

// CountPending tallies buffered frames commutatively; the wire layer
// must walk the node slice, not the map.
func CountPending(b *barrier) int {
	total := 0
	for _, f := range b.pending { // want:determinism
		if f != nil {
			total++
		}
	}
	return total
}

// ElapsedGate decides protocol progress from elapsed wall time rather
// than frame arrival.
func ElapsedGate(start time.Time) bool {
	return time.Since(start) > time.Second // want:determinism
}

// Collect walks the ascending node-id slice with keyed lookups, so
// deliveries keep the engine's order.
func Collect(b *barrier) []*frame {
	var out []*frame
	for _, id := range b.nodes {
		if f := b.pending[id]; f != nil {
			out = append(out, f)
		}
	}
	return out
}

// ArmDeadline is the sanctioned wall-clock site: arming a socket
// deadline changes when a retry fires, never what the protocol computes.
func ArmDeadline(c net.Conn, d time.Duration) error {
	return c.SetReadDeadline(time.Now().Add(d)) //lint:allow determinism deadline arming is the sanctioned wall-clock use
}
