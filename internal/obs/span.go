package obs

import "sync"

// This file implements snapshot-lifecycle span tracing: a SpanTracer mints
// root spans covering one snapshot version's journey from sample pooling to
// activation, with child spans/instants for each lifecycle stage (pool,
// correctness gate, necessity gate, build, quantize, install, activate) and
// edge markers (park, catch-up, retry, degrade). Spans render in the Chrome
// trace as one process per snapshot version (pid = version/epoch) with one
// thread track per fleet member (tid = member index + 1; tid 0 is the
// controller/fleet-wide track), so a whole rollout reads as a single flame
// graph.
//
// A root's version is usually unknown when pooling starts — versions are
// minted at build time — so the root buffers its children and flushes them
// into the tracer when it ends, stamping the late-assigned version on every
// event. Flushing happens on the single simulation goroutine in a fixed
// order, so exports stay byte-deterministic. Roots that never end (a run
// stopping mid-rollout) are simply dropped.
//
// Alongside the trace events, every completed stage feeds
// liteflow_snapshot_stage_ns{stage} and every successful root feeds
// liteflow_snapshot_e2e_ns, giving the aggregate view of where rollouts
// spend their time.

// spanCat is the trace category of every lifecycle span and stage event.
const spanCat = "snapshot"

// SpanTracer derives lifecycle spans and stage histograms from a Scope. The
// nil SpanTracer is a valid no-op, as are spans minted from it.
type SpanTracer struct {
	sc  Scope
	e2e *Histogram

	mu     sync.Mutex
	stages map[string]*Histogram
}

// NewSpanTracer returns a span tracer recording through sc. A no-op scope
// yields a tracer that still feeds (unregistered) histograms but emits no
// events.
func NewSpanTracer(sc Scope) *SpanTracer {
	return &SpanTracer{
		sc: sc,
		e2e: sc.Histogram("liteflow_snapshot_e2e_ns",
			"snapshot lifecycle end-to-end latency, pooling start to activation", DurationBuckets()),
		stages: make(map[string]*Histogram),
	}
}

// stage resolves (and caches) the per-stage duration histogram.
func (st *SpanTracer) stage(name string) *Histogram {
	st.mu.Lock()
	h, ok := st.stages[name]
	if !ok {
		h = st.sc.Histogram("liteflow_snapshot_stage_ns",
			"snapshot lifecycle stage latency", DurationBuckets(),
			Label{Key: "stage", Value: name})
		st.stages[name] = h
	}
	st.mu.Unlock()
	return h
}

// Span is one snapshot lifecycle in flight. It is not goroutine-safe: like
// the components it instruments, a span belongs to a single engine goroutine.
type Span struct {
	st      *SpanTracer
	name    string
	start   int64
	version int64
	buf     []Event
	ended   bool
}

// Root opens a lifecycle root span at virtual time at. Call SetVersion once
// the snapshot version is minted, then End/EndFailed to flush; a root that
// is never ended emits nothing. Returns a no-op span when st is nil.
func (st *SpanTracer) Root(name string, at int64) *Span {
	if st == nil {
		return nil
	}
	return &Span{st: st, name: name, start: at}
}

// Lone emits one already-completed stage span immediately, outside any root —
// used for stages whose version is already known (per-member installs of a
// minted epoch, catch-up activations) — on member's track. dur 0 renders as
// an instant.
func (st *SpanTracer) Lone(stage string, version, member, at, dur int64) {
	if st == nil {
		return
	}
	st.stage(stage).Observe(float64(dur))
	if st.sc.tracer == nil {
		return
	}
	st.sc.tracer.Emit(onMemberTrack(
		Event{At: at, Dur: dur, Pid: version, Cat: spanCat, Name: stage}, member))
}

// onMemberTrack moves e to a fleet member's thread track (tid = member index
// + 1; tid 0 is the fleet-wide track) and tags it with the member index.
func onMemberTrack(e Event, member int64) Event {
	e.Tid = member + 1
	e.NArgs = 1
	e.Args[0] = Arg{Key: "member", Val: member}
	return e
}

// Start returns the root's opening timestamp.
func (sp *Span) Start() int64 {
	if sp == nil {
		return 0
	}
	return sp.start
}

// SetVersion assigns the snapshot version (fleet epoch or per-service
// snapshot ordinal); it becomes the Chrome trace pid of the whole tree.
func (sp *Span) SetVersion(v int64) {
	if sp == nil {
		return
	}
	sp.version = v
}

// Version returns the assigned snapshot version (0 before SetVersion).
func (sp *Span) Version() int64 {
	if sp == nil {
		return 0
	}
	return sp.version
}

// Child records a completed lifecycle stage covering [at, at+dur) on the
// root's track. dur 0 renders as an instant event. The stage histogram is fed
// immediately; the trace event is buffered until the root ends.
func (sp *Span) Child(stage string, at, dur int64) {
	if sp == nil || sp.ended {
		return
	}
	sp.st.stage(stage).Observe(float64(dur))
	if sp.st.sc.tracer == nil {
		return
	}
	sp.buf = append(sp.buf, Event{At: at, Dur: dur, Cat: spanCat, Name: stage})
}

// Mark records an instant edge event (park, retry, defer, …) with one
// integer argument on the root's track.
func (sp *Span) Mark(name string, at int64, k string, v int64) {
	if sp == nil || sp.ended || sp.st.sc.tracer == nil {
		return
	}
	sp.buf = append(sp.buf, Event{At: at, Cat: spanCat, Name: name, NArgs: 1,
		Args: [2]Arg{{Key: k, Val: v}}})
}

// MarkMember records an instant edge event on a member's track.
func (sp *Span) MarkMember(name string, member, at int64) {
	if sp == nil || sp.ended || sp.st.sc.tracer == nil {
		return
	}
	sp.buf = append(sp.buf, onMemberTrack(Event{At: at, Cat: spanCat, Name: name}, member))
}

// End closes a successful lifecycle at virtual time at: the root event plus
// every buffered child is emitted with the version stamped as pid, and the
// end-to-end histogram observes at-start.
func (sp *Span) End(at int64) {
	if sp == nil || sp.ended {
		return
	}
	sp.st.e2e.Observe(float64(at - sp.start))
	sp.flush(at, "")
}

// EndFailed closes an abandoned lifecycle (build retries exhausted, install
// rejected): the tree is still emitted — failures should be visible in the
// flame graph — but the end-to-end histogram is not fed.
func (sp *Span) EndFailed(at int64, outcome string) {
	if sp == nil || sp.ended {
		return
	}
	if outcome == "" {
		outcome = "failed"
	}
	sp.flush(at, outcome)
}

func (sp *Span) flush(at int64, outcome string) {
	sp.ended = true
	tr := sp.st.sc.tracer
	if tr == nil {
		sp.buf = nil
		return
	}
	dur := at - sp.start
	if dur < 1 {
		// Keep the root a span ("X") even if the lifecycle collapsed to a
		// single virtual instant, so the tree still nests.
		dur = 1
	}
	root := Event{At: sp.start, Dur: dur, Pid: sp.version, Cat: spanCat,
		Name: sp.name, NArgs: 1, Args: [2]Arg{{Key: "version", Val: sp.version}}}
	if outcome != "" {
		root.NArgs = 2
		root.Args[1] = Arg{Key: "outcome", Str: outcome}
	}
	tr.Emit(root)
	for i := range sp.buf {
		sp.buf[i].Pid = sp.version
		tr.Emit(sp.buf[i])
	}
	sp.buf = nil
}
