package adversaries

import (
	"fmt"
	"strings"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
)

// named is one row of the adversary-name table: how a command-line name
// and its parameters (n nodes, the family parameter d, a seed) build an
// adversary. The table is a slice so that Names lists it in a fixed order.
type named struct {
	name  string
	build func(n, d int, seed uint64) (dynet.Adversary, error)
}

var table = []named{
	{"line", func(n, _ int, _ uint64) (dynet.Adversary, error) { return dynet.Static(graph.Line(n)), nil }},
	{"ring", func(n, _ int, _ uint64) (dynet.Adversary, error) { return dynet.Static(graph.Ring(n)), nil }},
	{"star", func(n, _ int, _ uint64) (dynet.Adversary, error) { return dynet.Static(graph.Star(n)), nil }},
	{"complete", func(n, _ int, _ uint64) (dynet.Adversary, error) { return dynet.Static(graph.Complete(n)), nil }},
	{"grid", func(n, _ int, _ uint64) (dynet.Adversary, error) {
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("adversaries: grid needs a square n, got %d", n)
		}
		return dynet.Static(graph.Grid(side, side)), nil
	}},
	{"hypercube", func(n, _ int, _ uint64) (dynet.Adversary, error) {
		dim := 0
		for 1<<uint(dim) < n {
			dim++
		}
		if 1<<uint(dim) != n {
			return nil, fmt.Errorf("adversaries: hypercube needs a power-of-two n, got %d", n)
		}
		return dynet.Static(graph.Hypercube(dim)), nil
	}},
	{"random", func(n, _ int, seed uint64) (dynet.Adversary, error) { return RandomConnected(n, n/2, seed), nil }},
	{"bounded", func(n, d int, seed uint64) (dynet.Adversary, error) { return BoundedDiameter(n, d, n/2, seed), nil }},
	{"rotating", func(n, _ int, _ uint64) (dynet.Adversary, error) { return RotatingStar(n), nil }},
	{"staller", func(n, _ int, _ uint64) (dynet.Adversary, error) { return NewStaller(n, 0), nil }},
	{"tinterval", func(n, d int, seed uint64) (dynet.Adversary, error) { return NewTInterval(n, d, n/4, seed), nil }},
	{"dual", func(n, _ int, seed uint64) (dynet.Adversary, error) {
		var chords [][2]int
		for i := 0; i < n/2; i++ {
			chords = append(chords, [2]int{i, (i + n/2) % n})
		}
		return NewRandomDual(graph.Ring(n), chords, 0.5, seed), nil
	}},
	// A native delta adversary: a spanning tree plus n/8 churn slots, d
	// of which rewire per round as an O(d) edge-op script, the regime in
	// which the flood fast path's delta ingestion pays off at huge n.
	{"deltachurn", func(n, d int, seed uint64) (dynet.Adversary, error) {
		extra := max(n/8, 1)
		return NewDeltaChurn(n, extra, min(d, extra), seed), nil
	}},
}

// Names lists the adversary names Named accepts, in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, a := range table {
		names[i] = a.name
	}
	return names
}

// Named builds the named adversary over n nodes. d is the family
// parameter: the target per-round diameter of bounded, the interval
// length of tinterval and the rewires per round of deltachurn; the other
// families ignore it. The seeded families draw from seed.
func Named(name string, n, d int, seed uint64) (dynet.Adversary, error) {
	for _, a := range table {
		if a.name == name {
			return a.build(n, d, seed)
		}
	}
	return nil, fmt.Errorf("adversaries: unknown adversary %q (have %s)", name, strings.Join(Names(), ", "))
}
