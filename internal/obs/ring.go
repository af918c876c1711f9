package obs

// Ring is the capture sink for instrumented runs: a fixed-capacity ring
// buffer of events. Emit is allocation-free — the buffer is laid out
// once at construction — so attaching a Ring to the engine keeps the
// round loop's allocation profile flat (the alloc regression tests in
// internal/dynet pin this). When the ring wraps, the oldest events are
// overwritten and counted in Dropped.
//
// A Ring is not safe for concurrent use; one engine run emits from one
// goroutine (see Sink).
type Ring struct {
	buf   []Event
	total int // events ever emitted
}

// NewRing returns a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.total%cap(r.buf)] = ev
	}
	r.total++
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped reports how many events were overwritten after the ring filled.
func (r *Ring) Dropped() int { return r.total - len(r.buf) }

// Events returns the retained events in emission order (oldest first).
// The returned slice is freshly allocated; the ring can keep recording.
func (r *Ring) Events() []Event {
	out := make([]Event, len(r.buf))
	if r.total <= cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	head := r.total % cap(r.buf) // index of the oldest retained event
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// Reset empties the ring for reuse, keeping its buffer.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.total = 0
}
