// Package netsim is a deterministic discrete-event network simulator: an
// event engine with virtual nanosecond time, plus packets, queues, links and
// nodes. It is the substitute substrate for the Linux kernel datapath used by
// the LiteFlow paper (see DESIGN.md §1): it reproduces the feedback loops —
// ACK clocking, queue build-up, ECN marking, loss — that make the placement
// of an adaptive NN's control path matter.
//
// The engine is single-threaded — all state mutation happens inside event
// callbacks on the goroutine that called Run, entities need no locks, and runs
// are reproducible — and comes in two families that differ in how same-time
// events tie-break. NewEngine builds the classic engine: one event queue.
// NewParallelEngine builds the partitioned conservative-lookahead engine
// (DESIGN.md §4h): entities are placed into partitions (AddPartition), each
// partition owns a private event queue and virtual clock, and execution
// proceeds in windows bounded by the minimum cross-partition link delay — the
// safe lookahead of conservative parallel discrete-event simulation. A window
// runs the partitions one after another, in index order; within it they share
// no state, and at the window barrier cross-partition packet handoffs are
// drained from per-partition mailboxes in partition-index order, the same
// merge-in-deterministic-order rule the experiment harness and fleet plane use
// (§4d). The small private heaps are what the family is kept for. Entities
// trace into the scope they were given, so a partitioned run's trace is in
// execution order: window by window, and partition by partition inside a
// window.
//
// In both families the completions of a FIFO server — a link's packets in
// propagation, a CPU's per-packet work — wait in the server's own Ring and
// only the ring's head occupies the owning partition's heap.
//
// Work that repeats in virtual time — batch delivery every T, a monitor
// interval, a watchdog, a traffic source's next packet — runs on a Ticker.
// Its step returns the next delay and whether to go on; the ticker re-arms
// through After on the Engine view it was made on, only after the step
// returns, so a chain pushes the events a hand-written self-rescheduling
// callback would. The first step runs after the delay given to Start. Stop
// ends exactly the chain it is called on, whose pending event then runs
// nothing; Start on a live chain does nothing; a step allocates nothing.
// Chains are told apart by due time, which leaves one edge case after
// Stop→Start (see Ticker).
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Time is virtual simulation time in nanoseconds.
type Time = int64

// Common durations in nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// never is the sentinel "no event" time.
const never = Time(math.MaxInt64)

// ErrPastEvent reports an attempt to schedule an event before the scheduling
// partition's current virtual time. At panics with an error wrapping it.
var ErrPastEvent = errors.New("netsim: event scheduled in the past")

// pastEventError decorates ErrPastEvent with the offending times.
func pastEventError(at, now Time, partition int) error {
	return fmt.Errorf("%w (at=%d now=%d partition=%d)", ErrPastEvent, at, now, partition)
}

// event is one heap entry: a time, the partition-local sequence number that
// breaks its ties, and what to run. Whatever else an event needs waits on the
// entity that scheduled it — the packet in serialization on its Link, a FIFO
// server's completions in its Ring — so an event is 24 bytes and dispatch is
// one indirect call.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events in one partition
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// precedes is before as a number, 1 or 0, computed without a branch: the
// borrow out of the 128-bit subtraction (a.at:a.seq) − (b.at:b.seq). Flipping
// the sign bit maps int64 order onto uint64 order, so it holds for every Time.
func precedes(a, b *event) int {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return int(borrow)
}

// eventQueue is a typed 4-ary min-heap ordered by (at, seq), the events
// themselves in the array: no interface boxing, and push/pop allocate only on
// backing-array growth.
//
// Sifting moves a hole, not an event: the event on the move stays in a local
// and each level is written once. pop goes one further and leaves the hole at
// the root (open): the event just popped nearly always schedules its successor
// at once — a ring re-arm, the next serialization — and that push sinks from
// the root in one pass instead of a sift down for pop plus a sift up for
// push. Whoever next needs the minimum while the hole is open (pop, minTime,
// settle) fills it with the last leaf first. Only the methods below index ev.
type eventQueue struct {
	ev   []event
	open bool // ev[0] was popped and nothing has taken its place yet
}

func (q *eventQueue) len() int {
	if q.open {
		return len(q.ev) - 1
	}
	return len(q.ev)
}

func (q *eventQueue) push(e event) {
	if q.open {
		q.open = false
		q.sink(e)
		return
	}
	q.ev = append(q.ev, event{}) // a hole at the end, moved up to where e belongs
	h := q.ev
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the minimum. The queue must not be empty.
func (q *eventQueue) pop() event {
	q.settle()
	top := q.ev[0]
	q.open = true
	return top
}

// minTime returns the time of the earliest event, never for an empty queue.
func (q *eventQueue) minTime() Time {
	q.settle()
	if len(q.ev) == 0 {
		return never
	}
	return q.ev[0].at
}

// settle fills an open hole with the last leaf.
func (q *eventQueue) settle() {
	if q.open {
		q.fill()
	}
}

// fill is settle's slow path, apart so that settle inlines into the event loop.
func (q *eventQueue) fill() {
	q.open = false
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // clear fn so the GC can reclaim what it closes over
	q.ev = q.ev[:n]
	if n > 0 {
		q.sink(last)
	}
}

// sink stores e in the hole at the root, first moving the hole down past
// every descendant that precedes e. The smallest of a full group of four
// children is picked arithmetically: which child wins is a coin toss the
// branch predictor loses, level after level.
func (q *eventQueue) sink(e event) {
	h := q.ev
	i := 0
	for {
		c := 4*i + 1
		if c+4 <= len(h) {
			g := (*[4]event)(h[c : c+4])
			m01 := precedes(&g[1], &g[0])
			m23 := 2 + precedes(&g[3], &g[2])
			// m01 if it wins, else m23. (&3 spares the bounds checks.)
			c += m01 ^ (m01^m23)&-precedes(&g[m23&3], &g[m01&3])
		} else if c < len(h) {
			for j := c + 1; j < len(h); j++ {
				if h[j].before(&h[c]) {
					c = j
				}
			}
		} else {
			break
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// handoff is one cross-partition packet delivery awaiting the window barrier.
type handoff struct {
	l  *Link
	p  *Packet
	at Time
}

// coordinator is the shared state behind every partition view of one
// simulation: the partition list and the conservative lookahead.
type coordinator struct {
	parts       []*Engine
	partitioned bool // built by NewParallelEngine
	lookahead   Time // min cross-partition link delay; 0 = no cross links yet
	running     bool
	// guarded arms checkOwner: true for the length of a Run/RunUntil call on
	// a partitioned engine.
	guarded bool
	free    []*Packet // the packet free list (AllocPacket, FreePacket)
}

// Engine is one partition's view of the simulation: a private event queue,
// clock and FIFO sequence counter. NewEngine returns a single-partition
// engine with the classic serial semantics; NewParallelEngine returns the
// root view of a partitioned engine, and AddPartition mints further views.
// Entities hold the view of the partition they live in, so At/After/Now are
// naturally partition-local. Run/RunUntil may be called on any view and
// drive the whole simulation.
type Engine struct {
	co     *coordinator
	id     int
	now    Time
	seq    uint64
	q      eventQueue
	outbox []handoff
	// flying counts completions waiting in the rings armed in this
	// partition, behind each ring's head (the head is in q).
	flying int
	// active is true while this partition's events are executing; checkOwner
	// reads it to diagnose a schedule that comes from another partition.
	active bool
}

// NewEngine returns a classic single-partition engine with time 0 and an
// empty event queue. AddPartition on it returns the engine itself, so
// topology builders can place entities unconditionally.
func NewEngine() *Engine {
	return newRoot(false)
}

// newRoot builds a coordinator and returns its first partition's view.
func newRoot(partitioned bool) *Engine {
	co := &coordinator{partitioned: partitioned}
	e := &Engine{co: co}
	co.parts = []*Engine{e}
	return e
}

// NewParallelEngine returns the root view of a partitioned
// conservative-lookahead engine (DESIGN.md §4h). Its windows run on the
// calling goroutine, so there is no worker count to give: the argument is not
// looked at, and remains only because bench/ still passes one.
func NewParallelEngine(int) *Engine {
	return newRoot(true)
}

// AddPartition mints a new partition view on a partitioned engine. On a
// classic engine it returns the engine itself: the single partition.
func (e *Engine) AddPartition() *Engine {
	co := e.co
	if !co.partitioned {
		return e
	}
	if co.running {
		panic("netsim: AddPartition while the engine is running")
	}
	p := &Engine{co: co, id: len(co.parts), now: co.parts[0].now}
	co.parts = append(co.parts, p)
	return p
}

// Partitions returns the number of partitions.
func (e *Engine) Partitions() int { return len(e.co.parts) }

// Lookahead returns the conservative window width: the minimum
// cross-partition link delay, or 0 when no cross-partition link exists.
func (e *Engine) Lookahead() Time { return e.co.lookahead }

// Now returns this partition's current virtual time.
func (e *Engine) Now() Time { return e.now }

// push assigns the partition-local FIFO sequence and enqueues.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.q.push(ev)
}

// checkOwner panics when an event executing in another partition schedules
// onto this one mid-window. Partitions run their windows one after another,
// so the event would land ahead of this partition's clock or behind it
// depending on which of the two has the lower index — not on anything the
// model says — and the lookahead argument (see run) covers only what goes
// through a mailbox.
func (e *Engine) checkOwner() {
	if e.co.guarded && !e.active {
		panic("netsim: cross-partition schedule during a window; hand off through a Link (mailbox) instead")
	}
}

// At schedules fn to run at absolute time t in this partition. Scheduling in
// the past is a programming error and panics (with an error wrapping
// ErrPastEvent): silently reordering events would corrupt causality in every
// experiment built on top.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(pastEventError(t, e.now, e.id))
	}
	e.checkOwner()
	e.push(event{at: t, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d is clamped to
// zero (runs "immediately", after already-queued same-time events).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Pending returns the number of scheduled events across all partitions,
// including completions waiting in a Ring behind its head and
// cross-partition handoffs awaiting a window barrier.
func (e *Engine) Pending() int {
	n := 0
	for _, p := range e.co.parts {
		n += p.q.len() + p.flying + len(p.outbox)
	}
	return n
}

// runTo executes this partition's events strictly before end (the exclusive
// window bound), advancing the partition clock as it goes.
func (e *Engine) runTo(end Time) {
	if e.q.minTime() >= end {
		return
	}
	e.active = true
	// minTime settles the queue, so the loop exits with no hole open.
	for e.q.minTime() < end {
		ev := e.q.pop()
		e.now = ev.at
		ev.fn()
	}
	e.active = false
}

// RunUntil executes events until every queue is empty or the next event is
// later than deadline. Every partition clock is advanced to the deadline if
// the simulation outlived it, so subsequent scheduling is relative to the
// deadline.
func (e *Engine) RunUntil(deadline Time) { e.co.run(deadline) }

// Run executes events until every queue is empty.
func (e *Engine) Run() { e.co.run(never) }

// nextTime returns the earliest pending event time across partitions.
func (co *coordinator) nextTime() Time {
	t := never
	for _, p := range co.parts {
		if at := p.q.minTime(); at < t {
			t = at
		}
	}
	return t
}

// run is the window loop. Each iteration finds the global minimum event time
// T, executes the window [T, T+lookahead) on every partition in index order,
// then drains cross-partition mailboxes at the barrier.
// Conservative correctness: any packet handed off during the window arrives
// at ≥ T + link delay ≥ T + lookahead, i.e. strictly after the window, so no
// partition can receive work for a time it already executed past.
func (co *coordinator) run(deadline Time) {
	if co.running {
		panic("netsim: Run/RunUntil re-entered from inside an event")
	}
	co.running = true
	co.guarded = co.partitioned
	defer func() {
		// Also on a panicking event: the partition it ran in is left as
		// between windows — no hole in its queue, and not active, or
		// checkOwner would wave through the next run's cross-partition
		// schedules onto it.
		for _, p := range co.parts {
			p.q.settle()
			p.active = false
		}
		co.guarded = false
		co.running = false
	}()

	for {
		t := co.nextTime()
		if t == never || t > deadline {
			break
		}
		end := never
		if deadline < never-1 {
			end = deadline + 1 // exclusive bound: events at == deadline run
		}
		if co.lookahead > 0 {
			if we := t + co.lookahead; we > t && we < end {
				end = we
			}
		}
		for _, p := range co.parts {
			p.runTo(end)
		}
		co.drain()
	}

	if deadline != never {
		for _, p := range co.parts {
			if p.now < deadline {
				p.now = deadline
			}
		}
	} else {
		// Run(): align every clock at the last executed event so a
		// subsequent schedule on any view is never "in the past".
		var m Time
		for _, p := range co.parts {
			if p.now > m {
				m = p.now
			}
		}
		for _, p := range co.parts {
			if p.now < m {
				p.now = m
			}
		}
	}
}

// drain moves cross-partition handoffs from source outboxes into destination
// queues. Iteration is source-partition-index order, then send order within
// a source; destination FIFO sequence numbers are assigned in that drain
// order. Both orders are fixed by the partitioning alone.
func (co *coordinator) drain() {
	for _, src := range co.parts {
		for i := range src.outbox {
			h := &src.outbox[i]
			dst := h.l.fly.eng
			if h.at < dst.now {
				// Lookahead violation: a cross-partition link delivered
				// into a window the destination already executed. The link
				// was wired without BindRemote or its delay was mutated
				// below the registered lookahead.
				panic(pastEventError(h.at, dst.now, dst.id))
			}
			h.l.fly.land(h.at, nil, h.p)
			h.p = nil
			h.l = nil
		}
		src.outbox = src.outbox[:0]
	}
}
