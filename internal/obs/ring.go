package obs

// ring is a bounded buffer that evicts its oldest element when full: recent
// history wins, and because eviction depends only on the push order the
// retained contents are reproducible. It doubles up to its capacity, so a
// ring that never fills holds only what was pushed. The tracer holds one of
// events and every flight-recorder series one of points. Not goroutine-safe;
// the holder locks.
type ring[T any] struct {
	buf      []T // the retained elements; start is 0 until len reaches capacity
	capacity int
	start    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{capacity: capacity} }

// next returns the slot the next element goes into and whether that evicts
// the oldest element, whose slot it then is. The caller overwrites the slot
// whole.
func (r *ring[T]) next() (*T, bool) {
	n := len(r.buf)
	if n == r.capacity {
		slot := &r.buf[r.start]
		r.start = (r.start + 1) % n
		return slot, true
	}
	if n == cap(r.buf) { // double, up to the capacity
		r.buf = append(make([]T, 0, min(max(2*n, 1), r.capacity)), r.buf...)
	}
	r.buf = r.buf[:n+1]
	return &r.buf[n], false
}

// at returns the i-th retained element, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.start+i)%len(r.buf)] }

// slice returns a copy of the retained elements, oldest first.
func (r *ring[T]) slice() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.start:]...), r.buf[:r.start]...)
}
