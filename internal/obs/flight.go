package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// This file implements the flight recorder: a virtual-time sampler that
// snapshots every registry series into fixed-capacity ring buffers on a
// configurable tick, and answers windowed queries over the recorded history.
// Window extracts each series' points inside a virtual-time range; Delta
// compares a before-window against an after-window and reports per-series
// rate (or level) changes — exactly the primitive a canary gate needs to
// decide "did installing snapshot v hurt goodput or latency?".
//
// Counters and histogram _count/_sum sub-series are cumulative, so their
// window statistic is a rate (delta value / delta time, per second). Gauges
// and histogram quantile estimates are levels, so their statistic is the
// window mean. Histograms additionally contribute _p50/_p99 sub-series,
// estimated as the upper bound of the bucket where the cumulative count
// crosses the quantile (the +Inf bucket reports the observed max) — coarse,
// but deterministic and monotone in the underlying distribution.
//
// The recorder is wall-clock-free, and a lock guards its recorded points.
// Sample, though, reads view-backed series, so it runs on the goroutine of
// the components it samples, driven from their simulation engine. Recordings are
// byte-identical across same-seed runs, and the parallel experiment harness
// gives each job a private recorder and folds them in job order (Merge),
// keeping -parallel exports byte-identical to serial ones.

// DefaultFlightCapacity is the per-series ring size used when
// NewFlightRecorder is given a non-positive capacity.
const DefaultFlightCapacity = 1 << 10

// Point is one sampled value at a virtual timestamp.
type Point struct {
	At int64
	V  float64
}

// flightSeries is one recorded series: a bounded ring of points.
type flightSeries struct {
	cumulative bool
	pts        ring[Point]
}

// stat reduces the points with w.From <= At <= w.To, read in place, to the
// window's statistic: rate per second between the first and last of them for
// a cumulative series (two points at least, the last later than the first),
// their mean for a level series (one at least).
func (s *flightSeries) stat(w TimeWindow) (float64, bool) {
	var first, last Point
	var sum float64
	n := 0
	for i := 0; i < s.pts.n; i++ {
		p := s.pts.at(i)
		if p.At < w.From || p.At > w.To {
			continue
		}
		if n == 0 {
			first = p
		}
		last = p
		sum += p.V
		n++
	}
	if s.cumulative {
		span := last.At - first.At
		if n < 2 || span <= 0 {
			return 0, false
		}
		return (last.V - first.V) / float64(span) * 1e9, true
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// FlightRecorder records registry samples over virtual time. Construct with
// NewFlightRecorder; the nil recorder is a valid no-op.
type FlightRecorder struct {
	mu     sync.Mutex
	cap    int
	series map[string]*flightSeries
	ticks  int64
}

// NewFlightRecorder returns a recorder retaining up to capacity points per
// series (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{cap: capacity, series: make(map[string]*flightSeries)}
}

// Ticks returns how many Sample calls the recorder has absorbed.
func (fr *FlightRecorder) Ticks() int64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.ticks
}

// record appends one point to the named series, creating it on first use.
func (fr *FlightRecorder) record(name string, cumulative bool, at int64, v float64) {
	s, ok := fr.series[name]
	if !ok {
		s = &flightSeries{cumulative: cumulative, pts: newRing[Point](fr.cap)}
		fr.series[name] = s
	}
	slot, _ := s.pts.next()
	*slot = Point{At: at, V: v}
}

// Sample snapshots every series of reg at virtual time at: counter and gauge
// values directly, histograms as _count/_sum plus _p50/_p99 estimates.
// Series names include rendered labels (name{k="v",…}), matching the
// Prometheus exposition identity.
func (fr *FlightRecorder) Sample(reg *Registry, at int64) {
	if fr == nil || reg == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.ticks++
	for _, f := range reg.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			key := f.name
			if s.labels != "" {
				key = f.name + "{" + s.labels + "}"
			}
			switch f.kind {
			case kindCounter, kindGauge:
				fr.record(key, f.kind == kindCounter, at, s.value(f.kind))
			case kindHistogram:
				bounds, counts, sum := s.hist.snapshot()
				var total int64
				for _, c := range counts {
					total += c
				}
				fr.record(key+"_count", true, at, float64(total))
				fr.record(key+"_sum", true, at, sum)
				max := s.hist.Max()
				fr.record(key+"_p50", false, at, bucketQuantile(bounds, counts, total, max, 0.50))
				fr.record(key+"_p99", false, at, bucketQuantile(bounds, counts, total, max, 0.99))
			}
		}
	}
}

// bucketQuantile estimates quantile q from cumulative bucket counts: the
// upper bound of the bucket where the cumulative count crosses q*total; the
// +Inf bucket reports the observed max.
func bucketQuantile(bounds []float64, counts []int64, total int64, max float64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if cum >= rank {
			return b
		}
	}
	return max
}

// SeriesWindow is one series' recorded points inside a queried time range.
type SeriesWindow struct {
	Name       string
	Cumulative bool
	Points     []Point
}

// Window returns every series' points with from <= At <= to, sorted by
// series name. Series with no points in range are omitted.
func (fr *FlightRecorder) Window(from, to int64) []SeriesWindow {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]SeriesWindow, 0, len(fr.series))
	for name, s := range fr.series {
		var pts []Point
		for i := 0; i < s.pts.n; i++ {
			if p := s.pts.at(i); p.At >= from && p.At <= to {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			out = append(out, SeriesWindow{Name: name, Cumulative: s.cumulative, Points: pts})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TimeWindow is a closed virtual-time interval.
type TimeWindow struct {
	From, To int64
}

// SeriesDelta compares one series across two windows. For cumulative series
// Before/After are rates per second over each window; for level series they
// are window means.
type SeriesDelta struct {
	Name       string
	Cumulative bool
	Before     float64
	After      float64
}

// Delta compares the before and after windows and returns one entry per
// series that has enough data in both (cumulative series need >= 2 points
// per window to form a rate; level series need >= 1), sorted by name. This
// is the canary-gate primitive: sample around an install, then ask which
// series' rates moved. The rings are read in place: what a call allocates is
// the sorted names and the result.
func (fr *FlightRecorder) Delta(before, after TimeWindow) []SeriesDelta {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	names := fr.sortedNames()
	out := make([]SeriesDelta, 0, len(names))
	for _, name := range names {
		s := fr.series[name]
		bv, bok := s.stat(before)
		av, aok := s.stat(after)
		if !bok || !aok {
			continue
		}
		out = append(out, SeriesDelta{Name: name, Cumulative: s.cumulative, Before: bv, After: av})
	}
	return out
}

// sortedNames returns the recorded series names in sorted order. Callers
// hold fr.mu.
func (fr *FlightRecorder) sortedNames() []string {
	names := make([]string, 0, len(fr.series))
	for name := range fr.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// all returns every recorded point of every series, sorted by series name.
func (fr *FlightRecorder) all() []SeriesWindow { return fr.Window(math.MinInt64, math.MaxInt64) }

// Merge folds src's recorded points into fr in sorted series order, appending
// after fr's own points (ring eviction applies). Fork's join folds a child
// recorder this way, in job order, so merged recordings are byte-identical to
// a serial run's.
func (fr *FlightRecorder) Merge(src *FlightRecorder) {
	if fr == nil || src == nil {
		return
	}
	if fr == src {
		panic("obs: cannot merge a flight recorder into itself")
	}
	parts, ticks := src.all(), src.Ticks()

	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.ticks += ticks
	for _, p := range parts {
		for _, pt := range p.Points {
			fr.record(p.Name, p.Cumulative, pt.At, pt.V)
		}
	}
}

// WriteJSONL serializes the recording as JSON lines — one line per point, in
// sorted series order then recording order — byte-identical across same-seed
// runs.
func (fr *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, d := range fr.all() {
		kind := `"level"`
		if d.Cumulative {
			kind = `"cumulative"`
		}
		for _, p := range d.Points {
			bw.WriteString(`{"series":`)
			bw.Write(strconv.AppendQuote(nil, d.Name))
			bw.WriteString(`,"kind":`)
			bw.WriteString(kind)
			bw.WriteString(`,"at":`)
			bw.WriteString(strconv.FormatInt(p.At, 10))
			bw.WriteString(`,"v":`)
			bw.WriteString(formatValue(p.V))
			bw.WriteString("}\n")
		}
	}
	return bw.Flush()
}
