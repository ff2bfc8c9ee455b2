package netsim

// Ring holds the pending completions of one FIFO server — a link's packets in
// propagation, a CPU's per-packet work — in the order they fire. A FIFO
// server's completions leave in the order they entered, so only the ring's
// head has an event in its partition's heap: the heap holds one entry per
// server instead of one per packet in flight.
//
// Every schedule draws its sequence number when it is made, ring or not, and
// the head is re-armed under the number it drew, so the (at, seq) keys are
// those of a plain push per completion. A ring is sorted by that key (at
// checked in land, seq by the counter) and its minimum is in the heap; hence
// the heap's minimum, and with it the execution order, is that of the plain
// push as well (DESIGN.md §4h).
type Ring struct {
	eng   *Engine     // the partition the completions run in; its heap holds the head
	buf   []ringEntry // power-of-two circular buffer that doubles when full
	first int         // index of the head
	n     int
	fire  func() // fireHead, bound once
	// to receives the packets of completions scheduled without a fn, read
	// when each fires: a link's deliveries follow SetTarget, with no closure
	// per link.
	to Handler
}

// ringEntry is one pending completion: fn(p) (or to.HandlePacket(p)) at at,
// under the sequence number its partition drew for it.
type ringEntry struct {
	at  Time
	seq uint64
	fn  func(*Packet)
	p   *Packet
}

// Init binds an empty ring to eng: its completions run in eng's partition.
// A Ring lives where its owner put it (a field of a Link, of a ksim.CPU) and
// is not copied once bound.
func (r *Ring) Init(eng *Engine) { r.eng, r.fire = eng, r.fireHead }

// At schedules fn(p) at absolute time t: the closure-free At for a FIFO
// server's per-packet completions. Like At, it panics with an error wrapping
// ErrPastEvent when t is before the partition's clock.
func (r *Ring) At(t Time, fn func(*Packet), p *Packet) {
	e := r.eng
	if t < e.now {
		panic(pastEventError(t, e.now, e.id))
	}
	e.checkOwner()
	r.land(t, fn, p)
}

// land draws the completion's sequence number and queues it. A completion
// that would precede the tail — a link's delay lowered under packets in
// flight — is pushed on its own as a closure and never enters the ring: the
// one path that allocates, and no steady state takes it.
func (r *Ring) land(t Time, fn func(*Packet), p *Packet) {
	e := r.eng
	e.seq++
	switch {
	case r.n == 0:
		e.q.push(event{at: t, seq: e.seq, fn: r.fire})
	case t >= r.buf[(r.first+r.n-1)&(len(r.buf)-1)].at:
		e.flying++
	default:
		e.q.push(event{at: t, seq: e.seq, fn: func() { r.retire(fn, p) }})
		return
	}
	if r.n == len(r.buf) {
		grown := make([]ringEntry, max(8, 2*len(r.buf)))
		k := copy(grown, r.buf[r.first:])
		copy(grown[k:], r.buf[:r.first])
		r.buf, r.first = grown, 0
	}
	r.buf[(r.first+r.n)&(len(r.buf)-1)] = ringEntry{at: t, seq: e.seq, fn: fn, p: p}
	r.n++
}

// fireHead retires the head: it arms the next entry under the sequence number
// that entry drew, then runs the head's completion.
func (r *Ring) fireHead() {
	h := &r.buf[r.first]
	fn, p := h.fn, h.p
	h.p = nil // the ring must not keep a retired packet reachable
	r.first = (r.first + 1) & (len(r.buf) - 1)
	if r.n--; r.n > 0 {
		next := &r.buf[r.first]
		r.eng.q.push(event{at: next.at, seq: next.seq, fn: r.fire})
		r.eng.flying--
	}
	r.retire(fn, p)
}

// retire runs one completion.
func (r *Ring) retire(fn func(*Packet), p *Packet) {
	if fn == nil {
		r.to.HandlePacket(p)
		return
	}
	fn(p)
}
