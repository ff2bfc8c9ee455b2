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
// instruments. The zero Scope is a valid no-op: registering a view
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
}

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

// Registry returns the backing registry (nil for a no-op scope).
func (s Scope) Registry() *Registry { return s.reg }

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
// constructing argument slices: each builds its Event only once it knows a
// tracer is attached, so on a no-op scope it returns before anything is built
// and allocates nothing.

// Event records an instant event at virtual time at (nanoseconds).
func (s Scope) Event(cat, name string, at int64) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Cat: cat, Name: name})
	}
}

// Event1 records an instant event with one integer argument.
func (s Scope) Event1(cat, name string, at int64, k string, v int64) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Cat: cat, Name: name, NArgs: 1, Args: [2]Arg{{Key: k, Val: v}}})
	}
}

// Event2 records an instant event with two integer arguments.
func (s Scope) Event2(cat, name string, at int64, k1 string, v1 int64, k2 string, v2 int64) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Cat: cat, Name: name, NArgs: 2, Args: [2]Arg{{Key: k1, Val: v1}, {Key: k2, Val: v2}}})
	}
}

// EventStr records an instant event with one string argument.
func (s Scope) EventStr(cat, name string, at int64, k, v string) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Cat: cat, Name: name, NArgs: 1, Args: [2]Arg{{Key: k, Str: v}}})
	}
}

// EventMix records an instant event with one integer and one string
// argument — the mixed shape resilience events need (e.g. a retry attempt
// number plus the failing model's name).
func (s Scope) EventMix(cat, name string, at int64, k1 string, v1 int64, k2, v2 string) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Cat: cat, Name: name, NArgs: 2, Args: [2]Arg{{Key: k1, Val: v1}, {Key: k2, Str: v2}}})
	}
}

// Span records a complete event covering [at, at+dur).
func (s Scope) Span(cat, name string, at, dur int64) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Dur: dur, Cat: cat, Name: name})
	}
}

// Span1 records a complete event with one integer argument.
func (s Scope) Span1(cat, name string, at, dur int64, k string, v int64) {
	if s.tracer != nil {
		s.tracer.record(&Event{At: at, Dur: dur, Cat: cat, Name: name, NArgs: 1, Args: [2]Arg{{Key: k, Val: v}}})
	}
}
