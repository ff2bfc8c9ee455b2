package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Arg is one key/value argument attached to a trace event. When Str is
// non-empty the value is a string, otherwise Val.
type Arg struct {
	Key string
	Val int64
	Str string
}

// Event is one structured trace record. At is virtual simulation time in
// nanoseconds; Dur > 0 marks a complete (span) event covering [At, At+Dur).
// Events carry at most two arguments so emission never allocates.
//
// Pid and Tid map onto the Chrome trace-event process/thread IDs and give
// events a place in the flame-graph hierarchy: the span tracer sets Pid to
// the snapshot version (epoch) and Tid to member index + 1, so a whole fleet
// rollout of one version groups under a single process row with one thread
// track per member (tid 0 is the fleet-wide/controller track). Events that
// predate span tracing leave both zero.
type Event struct {
	At    int64
	Dur   int64
	Pid   int64
	Tid   int64
	Cat   string
	Name  string
	Args  [2]Arg
	NArgs int
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 1 << 16

// Tracer is a bounded ring buffer of events. When full, the oldest event is
// evicted — recent history wins, and because eviction is deterministic the
// exported bytes stay reproducible. A nil Tracer is a valid no-op.
type Tracer struct {
	mu      sync.Mutex
	ring    ring[Event]
	evicted int64
	// evictedCounter mirrors evicted into a registry counter
	// (liteflow_trace_evicted_total) when the tracer is bound to one via
	// New, so silent ring overflow is visible in /metrics.
	evictedCounter *Counter
}

// NewTracer returns a tracer retaining up to capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: newRing[Event](capacity)}
}

// Emit records one event, evicting the oldest when the ring is full.
func (t *Tracer) Emit(e Event) {
	if t != nil {
		t.record(&e)
	}
}

// record is Emit for a non-nil tracer. The Scope helpers pass a pointer:
// handing the Event over by value costs a copy of all its fields per call.
func (t *Tracer) record(e *Event) {
	t.mu.Lock()
	*t.next() = *e
	t.mu.Unlock()
}

// next returns the ring slot of the event being recorded, counting the
// eviction when the ring is full. The caller holds t.mu.
func (t *Tracer) next() *Event {
	slot, evicted := t.ring.next()
	if evicted {
		t.evicted++
		t.evictedCounter.Inc()
	}
	return slot
}

// bindEvictedCounter mirrors the eviction count into c from now on, seeding
// it with evictions that happened before binding.
func (t *Tracer) bindEvictedCounter(c *Counter) {
	t.mu.Lock()
	t.evictedCounter = c
	c.Add(t.evicted)
	t.mu.Unlock()
}

// Cap returns the ring capacity, however few events it holds yet. Fork sizes
// its child tracers (one per job or rig) to the parent's capacity so that
// merge-after-run retains exactly the events a shared serial tracer would.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.ring.capacity
}

// Evicted returns how many events were displaced by ring overflow.
func (t *Tracer) Evicted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Events returns a copy of the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.slice()
}

// exportEvents returns the retained events for serialization. When the ring
// has overflowed, a synthetic one-time warning event is prepended (stamped at
// the oldest retained timestamp) so every export that lost history says so
// in-band. The warning is synthesized at export time rather than emitted into
// the ring because a real event would occur at different points in serial vs
// merged parallel runs and break byte-identical exports; the merged eviction
// total is identical in both, so this stays deterministic.
func (t *Tracer) exportEvents() []Event {
	events := t.Events()
	n := t.Evicted()
	if n == 0 {
		return events
	}
	var at int64
	if len(events) > 0 {
		at = events[0].At
	}
	warn := Event{At: at, Cat: "obs", Name: "trace_ring_overflow", NArgs: 1,
		Args: [2]Arg{{Key: "evicted", Val: n}}}
	return append([]Event{warn}, events...)
}

// WriteChromeTrace serializes the retained events as Chrome trace-event JSON
// (the "JSON object format"), loadable in chrome://tracing and Perfetto.
// Instant events use phase "i" with global scope; spans use phase "X".
// Timestamps are virtual microseconds with nanosecond fractions, so the
// output is byte-identical across same-seed runs.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.exportEvents()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeChromeEvent(bw, &events[i])
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func writeChromeEvent(bw *bufio.Writer, e *Event) {
	bw.WriteString(`{"name":`)
	bw.Write(strconv.AppendQuote(nil, e.Name))
	bw.WriteString(`,"cat":`)
	bw.Write(strconv.AppendQuote(nil, e.Cat))
	if e.Dur > 0 {
		bw.WriteString(`,"ph":"X","ts":`)
		writeMicros(bw, e.At)
		bw.WriteString(`,"dur":`)
		writeMicros(bw, e.Dur)
	} else {
		bw.WriteString(`,"ph":"i","s":"g","ts":`)
		writeMicros(bw, e.At)
	}
	bw.WriteString(`,"pid":`)
	bw.WriteString(strconv.FormatInt(e.Pid, 10))
	bw.WriteString(`,"tid":`)
	bw.WriteString(strconv.FormatInt(e.Tid, 10))
	if e.NArgs > 0 {
		bw.WriteString(`,"args":{`)
		writeArgs(bw, e)
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// WriteJSONL serializes the retained events as JSON lines, one event per
// line with nanosecond virtual timestamps — the grep/jq-friendly form.
// Lines follow ring emission order, which span flushing can leave slightly
// non-chronological; sort by "at" when order matters.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.exportEvents()
	bw := bufio.NewWriter(w)
	for i := range events {
		e := &events[i]
		bw.WriteString(`{"at":`)
		bw.WriteString(strconv.FormatInt(e.At, 10))
		if e.Dur > 0 {
			bw.WriteString(`,"dur":`)
			bw.WriteString(strconv.FormatInt(e.Dur, 10))
		}
		if e.Pid != 0 {
			bw.WriteString(`,"pid":`)
			bw.WriteString(strconv.FormatInt(e.Pid, 10))
		}
		if e.Tid != 0 {
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.FormatInt(e.Tid, 10))
		}
		bw.WriteString(`,"cat":`)
		bw.Write(strconv.AppendQuote(nil, e.Cat))
		bw.WriteString(`,"name":`)
		bw.Write(strconv.AppendQuote(nil, e.Name))
		if e.NArgs > 0 {
			bw.WriteString(`,"args":{`)
			writeArgs(bw, e)
			bw.WriteByte('}')
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// writeArgs renders the event's arguments as JSON object members.
func writeArgs(bw *bufio.Writer, e *Event) {
	for i := 0; i < e.NArgs && i < len(e.Args); i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		a := &e.Args[i]
		bw.Write(strconv.AppendQuote(nil, a.Key))
		bw.WriteByte(':')
		if a.Str != "" {
			bw.Write(strconv.AppendQuote(nil, a.Str))
		} else {
			bw.WriteString(strconv.FormatInt(a.Val, 10))
		}
	}
}

// writeMicros renders a nanosecond quantity as microseconds with three
// decimals (Chrome trace timestamps are microseconds).
func writeMicros(bw *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		bw.WriteByte('-')
		ns = -ns
	}
	bw.WriteString(strconv.FormatInt(ns/1000, 10))
	bw.WriteByte('.')
	frac := ns % 1000
	switch {
	case frac < 10:
		bw.WriteString("00")
	case frac < 100:
		bw.WriteByte('0')
	}
	bw.WriteString(strconv.FormatInt(frac, 10))
}
