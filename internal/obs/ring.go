package obs

// ring is a fixed-capacity buffer that evicts its oldest element when full:
// recent history wins, and because eviction depends only on the push order
// the retained contents are reproducible. The tracer holds one of events and
// every flight-recorder series one of points. Not goroutine-safe; the holder
// locks.
type ring[T any] struct {
	buf   []T
	start int
	n     int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// next returns the slot the next element goes into and whether that evicts
// the oldest element, whose slot it then is. The caller overwrites the slot
// whole.
func (r *ring[T]) next() (*T, bool) {
	if r.n < len(r.buf) {
		r.n++
		return &r.buf[(r.start+r.n-1)%len(r.buf)], false
	}
	slot := &r.buf[r.start]
	r.start = (r.start + 1) % len(r.buf)
	return slot, true
}

// at returns the i-th retained element, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.start+i)%len(r.buf)] }

// slice returns a copy of the retained elements, oldest first.
func (r *ring[T]) slice() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}
