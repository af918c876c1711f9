// Package faults is the determinism fixture of the fault-injection row:
// a plan that walks a map, even order-free, is one refactor away from
// letting query order shape a fault schedule.
package faults

import "time"

type outage struct{ from, until int }

type plan struct {
	schedules map[int][]outage
	order     []int
}

// CountDown sums scheduled down-rounds commutatively.
func CountDown(p *plan) int {
	total := 0
	for _, ws := range p.schedules { // want:determinism
		for _, w := range ws {
			total += w.until - w.from + 1
		}
	}
	return total
}

// Expire times out an outage window against the wall clock instead of a
// round counter.
func Expire(w outage) bool {
	return int(time.Now().Unix()) > w.until // want:determinism
}

// DownAt walks the insertion-order slice and answers from each node's
// windows: rounds are the only clock.
func DownAt(p *plan, r int) int {
	down := 0
	for _, node := range p.order {
		for _, w := range p.schedules[node] {
			if r >= w.from && r <= w.until {
				down++
			}
		}
	}
	return down
}
