// Package hot holds the //lint:hotpath roots of the corpus: one root
// reaching allocations across packages and through interface dispatch,
// one exercising the intraprocedural allocation catalog, one telling
// buffer reuse from a zero-capacity reslice, one storing a returned
// local's address beyond its frame, and one showing the documented
// edge-prune escape.
package hot

import (
	"fmt"

	"corpusmod/hotleaf"
	"corpusmod/hotmid"
)

// Sink is the interface whose dispatch the analyzer over-approximates.
type Sink interface {
	Consume(v int)
}

// Boxy implements Sink with an allocating body.
type Boxy struct{ last interface{} }

// Consume boxes its argument into an interface field; reached from the
// root only through interface dispatch.
func (b *Boxy) Consume(v int) {
	b.last = v // want:hotpathalloc
}

type point struct{ x, y int }

func takeAny(v interface{}) { _ = v }

func spin() {}

// Run is the corpus hot root: every function reachable below must be
// allocation-free.
//
//lint:hotpath
func Run(s Sink, dst []int, rounds int) int {
	total := 0
	for r := 0; r < rounds; r++ {
		dst = hotmid.Reuse(dst)
		grown := hotmid.Relay(r)
		total += len(grown) + len(dst) + len(hotleaf.Stage(r))
		s.Consume(r)
	}
	return total
}

// Local exercises the intraprocedural allocation catalog; the clean
// scratch-append line in the middle must stay unflagged.
//
//lint:hotpath
func Local(name string, xs []int) string {
	m := map[int]bool{} // want:hotpathalloc
	_ = m
	p := &point{1, 2} // want:hotpathalloc
	_ = p
	ys := make([]int, 4)    // want:hotpathalloc
	fresh := []int{1, 2, 3} // want:hotpathalloc
	ys = append(fresh, 4)   // want:hotpathalloc
	_ = ys
	xs = append(xs, 5)
	_ = xs
	bs := []byte(name) // want:hotpathalloc
	_ = bs
	takeAny(len(bs)) // want:hotpathalloc
	go spin()        // want:hotpathalloc
	n := 0
	f := func() { n++ } // want:hotpathalloc
	f()
	fmt.Println(name) // want:hotpathalloc
	return name + "!" // want:hotpathalloc
}

// ring reuses one field buffer across calls.
type ring struct{ vals []int }

// Refill resets the buffer before appending. Slicing to [:0] keeps the
// capacity; slicing to [:0:0] drops it, so that append allocates on
// every call.
//
//lint:hotpath
func (r *ring) Refill(v int) {
	r.vals = append(r.vals[:0], v)
	r.vals = append(r.vals[:0:0], v) // want:hotpathalloc
}

// stream mimics a split random source: child returns the address of a
// local, which stays on the caller's stack unless the caller stores it
// beyond its frame.
type stream struct{ state uint64 }

func (s *stream) child(w uint64) *stream {
	c := stream{state: s.state ^ w}
	return &c
}

// at wraps child and so returns a local's address too.
func (s *stream) at(w uint64) *stream { return s.child(w + 1) }

// lazy caches child streams.
type lazy struct {
	src  *stream
	srcs [2]*stream
}

// Child keeps two children in its frame (a local and a field of a local
// struct) and stores two beyond it, through the receiver pointer.
//
//lint:hotpath
func (l *lazy) Child(root *stream, w uint64) uint64 {
	local := root.child(w)
	var frame lazy
	frame.src = root.at(w)
	if l.src == nil {
		l.src = root.child(w) // want:hotpathalloc
	}
	l.srcs[0] = root.at(w) // want:hotpathalloc
	return local.state + frame.src.state + l.src.state + l.srcs[0].state
}

// Pruned calls an allocating helper through a documented allow: the
// call-graph edge is pruned, so expensive is never traversed and its
// make stays unflagged.
//
//lint:hotpath
func Pruned() []int {
	return expensive(8) //lint:allow hotpathalloc helper owns its allocation budget
}

// expensive allocates but is unreachable after the prune above.
func expensive(n int) []int {
	return make([]int, n)
}
