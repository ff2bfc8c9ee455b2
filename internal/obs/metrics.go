package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The nil counter and
// the zero value are both usable (unregistered); all methods are
// goroutine-safe.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket distribution metric: cumulative bucket counts
// and an exact sum for the Prometheus exposition, plus the largest sample,
// which the flight recorder reports for a quantile in the +Inf bucket. It is
// single-writer, like a view (DESIGN.md §4b), so Observe, which runs on every
// query, takes no lock: in an 8 s query-mix CPU profile (2-vCPU Xeon,
// go1.24.0) it took 0.65 s of the queries' 6.55 s with a mutex, 0.56 s of
// that in Lock and Unlock, and 0.03 s without.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []int64   // len(bounds)+1, last is the +Inf bucket
	sum    float64
	max    float64 // largest sample; -Inf until the first
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1), max: math.Inf(-1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest sample, or -Inf if none were recorded.
func (h *Histogram) Max() float64 { return h.max }

// ExpBuckets returns n ascending bucket bounds starting at start and growing
// by factor — the usual shape for duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets returns the default bounds for nanosecond duration
// histograms: 1 µs … 10 s in decades.
func DurationBuckets() []float64 { return ExpBuckets(1e3, 10, 8) }

// QueryBuckets returns the default bounds for per-query inference-cost
// histograms, whose values sit µs-and-below where DurationBuckets is too
// coarse: 250 ns … 512 µs, doubling.
func QueryBuckets() []float64 { return ExpBuckets(250, 2, 12) }

// metricKind discriminates registry families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one label combination of a family: an owned instrument or views
// over fields components keep (Scope.CounterOf, GaugeOf).
type series struct {
	labels  string        // rendered `k="v",…` form, "" for unlabeled
	kind    metricKind    // the family's
	flight  []string      // FlightRecorder keys: name{labels}, or its _count, _sum, _p50 and _p99
	counter Counter       // the owned counter, and what Merge folds counters into
	gauge   atomic.Uint64 // bits of the value Merge folds a gauge into
	owned   bool          // Counter has handed out the owned counter
	views   []*int64
	gview   func() float64
	hist    *Histogram
}

// value is the series' counter or gauge value, the one read behind
// Prometheus export, FlightRecorder.Sample, Registry.Merge and Registry.Value:
// the owned counter plus the sum of the counter views, or the gauge view.
func (s *series) value(kind metricKind) float64 {
	if kind == kindGauge {
		if s.gview != nil {
			return s.gview()
		}
		return math.Float64frombits(s.gauge.Load())
	}
	n := s.counter.Value()
	for _, v := range s.views {
		n += *v
	}
	return float64(n)
}

// histOf returns the series' histogram, creating it over a copy of bounds on
// first use.
func (s *series) histOf(bounds []float64) *Histogram {
	if s.hist == nil {
		s.hist = newHistogram(append([]float64(nil), bounds...))
	}
	return s.hist
}

// family groups every label combination of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry holds named metric families; the zero value is not usable —
// construct with NewRegistry. Registration and owned instruments are
// goroutine-safe, but a view-backed series is read (export, Sample, Merge,
// Value) on its components' goroutine or after their run has returned.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	all      []*series // every series in creation order, for FlightRecorder.Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels serializes ordered label pairs in Prometheus form.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the series for name plus rendered labels (key),
// enforcing kind consistency. A kind mismatch is a programming error and
// panics. The caller must hold r.mu.
func (r *Registry) lookup(name, help string, kind metricKind, key string) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		fk := name
		if key != "" {
			fk = name + "{" + key + "}"
		}
		s = &series{labels: key, kind: kind, flight: []string{fk}}
		if kind == kindHistogram {
			s.flight = []string{fk + "_count", fk + "_sum", fk + "_p50", fk + "_p99"}
		}
		f.series[key] = s
		r.all = append(r.all, s)
	}
	return s
}

// Counter returns the owned counter for name+labels, registering it on first
// use. It panics if the series has views.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, renderLabels(labels))
	if len(s.views) > 0 {
		panic(fmt.Sprintf("obs: series %s{%s} mixes views and an owned counter", name, s.labels))
	}
	s.owned = true
	return &s.counter
}

// view adds a counter view c, or sets the gauge view g, on name+labels. Counter
// views on one series sum; a second gauge view, or a view beside an owned
// counter, panics.
func (r *Registry) view(name, help string, kind metricKind, labels []Label, c *int64, g func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kind, renderLabels(labels))
	if s.owned || s.gview != nil {
		panic(fmt.Sprintf("obs: series %s{%s} already has an owned counter or a gauge view", name, s.labels))
	}
	if kind == kindGauge {
		s.gview = g
	} else {
		s.views = append(s.views, c)
	}
}

// Value reads counter or gauge series name+labels as an export does; a
// histogram or a series that does not exist reads 0.
func (r *Registry) Value(name string, labels ...Label) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind != kindHistogram {
		if s, ok := f.series[renderLabels(labels)]; ok {
			return s.value(f.kind)
		}
	}
	return 0
}

// Histogram returns the histogram for name+labels, registering it on first
// use. The bounds of the first registration win; later calls with different
// bounds receive the existing instrument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindHistogram, renderLabels(labels)).histOf(bounds)
}

// sortedFamilies returns families ordered by name, each with its series
// ordered by label key — the deterministic export order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns the family's series in deterministic order.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
