// Package obs is the unified telemetry layer of the simulator: a metrics
// registry (counters, gauges, fixed-bucket histograms keyed by name plus
// ordered label pairs) whose snapshots serialize to Prometheus text
// exposition format, and a bounded event tracer stamped with virtual
// simulation time that exports Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto) and JSON lines.
//
// The package is stdlib-only and deliberately does not import netsim:
// timestamps are plain int64 nanoseconds, which is the identical type to
// netsim.Time (a type alias). Because the simulation engine is deterministic
// and every timestamp is virtual, two runs with the same seed produce
// byte-identical exports — traces are diffable regression artifacts, not
// just debugging aids.
//
// Instrumented components receive a Scope, a cheap value handle bundling a
// *Registry and a *Tracer plus base labels. A component counts into fields of
// its own Stats and registers read-only views over them (Scope.CounterOf,
// GaugeOf); histograms and the tracer's eviction counter are owned
// instruments. The zero Scope (or Nop()) is a valid no-op: registering a view
// on it returns at once and allocates nothing, and it traces nothing.
//
// Owned instruments, registration and the tracer are goroutine-safe. Views
// are not: a registry is read on the goroutine that runs its components (a
// flight tick) or after their run has returned (file exports, /metrics, a
// Fork join).
package obs

// Label is one name/value pair qualifying a metric or a scope.
type Label struct {
	Key   string
	Value string
}

// Scope is the instrumentation handle threaded through component
// constructors. It is a small value; copy it freely.
type Scope struct {
	reg    *Registry
	tracer *Tracer
	labels []Label
	tid    int64
}

// Nop returns the no-op scope. Identical to the zero value.
func Nop() Scope { return Scope{} }

// New returns a scope exporting metrics to reg and events to tr. Either may
// be nil to disable that half. When both halves are live the tracer's
// eviction count is mirrored into liteflow_trace_evicted_total, so silent
// trace-ring overflow shows up in /metrics.
func New(reg *Registry, tr *Tracer) Scope {
	if reg != nil && tr != nil {
		tr.bindEvictedCounter(reg.Counter("liteflow_trace_evicted_total",
			"trace events displaced by ring-buffer overflow"))
	}
	return Scope{reg: reg, tracer: tr}
}

// With returns a scope whose instruments carry the additional base labels
// (prepended before per-instrument labels, in order).
func (s Scope) With(labels ...Label) Scope {
	s.labels = s.merged(labels)
	return s
}

// WithTracer returns a scope emitting trace events to tr instead of the
// current tracer, keeping the registry, labels and tid. The partitioned
// simulation engine uses it to route each partition's events into a private
// shard (netsim.Engine.PartitionScope); tr is not bound to the
// trace-eviction counter — the fold into the base tracer carries shard
// evictions.
func (s Scope) WithTracer(tr *Tracer) Scope {
	s.tracer = tr
	return s
}

// WithTid returns a scope whose trace events carry the given thread-track ID
// (Chrome trace "tid"). Fleet provisioning sets member index + 1 so each
// member's events render on its own track; tid 0 is the shared/controller
// track.
func (s Scope) WithTid(tid int64) Scope {
	s.tid = tid
	return s
}

// Registry returns the backing registry (nil for a no-op scope).
func (s Scope) Registry() *Registry { return s.reg }

// Tracer returns the backing tracer (nil when tracing is off).
func (s Scope) Tracer() *Tracer { return s.tracer }

// Labels returns a copy of the scope's base labels in declaration order.
// Callers use it to reconstruct the exposition-name fragments (`k="v"`) that
// identify this scope's series in a flight recorder.
func (s Scope) Labels() []Label { return append([]Label(nil), s.labels...) }

// merged combines the scope's base labels with instrument labels.
func (s Scope) merged(labels []Label) []Label {
	if len(s.labels) == 0 {
		return labels
	}
	out := make([]Label, 0, len(s.labels)+len(labels))
	out = append(out, s.labels...)
	out = append(out, labels...)
	return out
}

// Counter resolves (registering on first use) an owned counter. On a no-op
// scope it returns a live but unregistered counter.
func (s Scope) Counter(name, help string, labels ...Label) *Counter {
	if s.reg == nil {
		return &Counter{}
	}
	return s.reg.Counter(name, help, s.merged(labels)...)
}

// CounterOf registers a counter view: the series exports *v, a field its
// component increments itself, summed with the series' other views.
func (s Scope) CounterOf(name, help string, v *int64, labels ...Label) {
	if s.reg != nil {
		s.reg.view(name, help, kindCounter, s.merged(labels), v, nil)
	}
}

// GaugeOf registers a gauge view: the series exports *v, a field its component
// keeps.
func GaugeOf[T int | int64 | float64](s Scope, name, help string, v *T, labels ...Label) {
	if s.reg != nil {
		s.reg.view(name, help, kindGauge, s.merged(labels), nil, func() float64 { return float64(*v) })
	}
}

// Histogram resolves (registering on first use) a fixed-bucket histogram.
// bounds are ascending upper bounds; a final +Inf bucket is implicit.
func (s Scope) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if s.reg == nil {
		return newHistogram(bounds)
	}
	return s.reg.Histogram(name, help, bounds, s.merged(labels)...)
}

// The fixed-arity event helpers below exist so hot paths can emit without
// constructing argument slices: Tracer.emit, the one body under all of them,
// takes the two arguments as scalars, so on a no-op scope it returns before
// anything is built and allocates nothing.

// Event records an instant event at virtual time at (nanoseconds).
func (s Scope) Event(cat, name string, at int64) {
	s.tracer.emit(s.tid, cat, name, at, 0, 0, "", 0, "", "", 0, "")
}

// Event1 records an instant event with one integer argument.
func (s Scope) Event1(cat, name string, at int64, k string, v int64) {
	s.tracer.emit(s.tid, cat, name, at, 0, 1, k, v, "", "", 0, "")
}

// Event2 records an instant event with two integer arguments.
func (s Scope) Event2(cat, name string, at int64, k1 string, v1 int64, k2 string, v2 int64) {
	s.tracer.emit(s.tid, cat, name, at, 0, 2, k1, v1, "", k2, v2, "")
}

// EventStr records an instant event with one string argument.
func (s Scope) EventStr(cat, name string, at int64, k, v string) {
	s.tracer.emit(s.tid, cat, name, at, 0, 1, k, 0, v, "", 0, "")
}

// EventMix records an instant event with one integer and one string
// argument — the mixed shape resilience events need (e.g. a retry attempt
// number plus the failing model's name).
func (s Scope) EventMix(cat, name string, at int64, k1 string, v1 int64, k2, v2 string) {
	s.tracer.emit(s.tid, cat, name, at, 0, 2, k1, v1, "", k2, 0, v2)
}

// Span records a complete event covering [at, at+dur).
func (s Scope) Span(cat, name string, at, dur int64) {
	s.tracer.emit(s.tid, cat, name, at, dur, 0, "", 0, "", "", 0, "")
}

// Span1 records a complete event with one integer argument.
func (s Scope) Span1(cat, name string, at, dur int64, k string, v int64) {
	s.tracer.emit(s.tid, cat, name, at, dur, 1, k, v, "", "", 0, "")
}
