// Package stats provides small, allocation-conscious statistics helpers used
// by the simulator and the experiment harness: running summaries, CDFs,
// percentiles and fixed-interval time series.
//
// All helpers are deterministic and operate on float64 samples. They are not
// safe for concurrent use; callers own the synchronization (the simulator is
// single-threaded by design).
package stats

import (
	"math"
	"sort"
)

// Summary accumulates a running mean/variance without storing samples,
// using Welford's online algorithm.
type Summary struct {
	n    int
	mean float64
	m2   float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the arithmetic mean, or 0 if no samples were recorded.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance, or 0 for fewer than two samples.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Dist stores samples for quantile queries. It sorts lazily and caches the
// sorted order until the next Add.
type Dist struct {
	xs     []float64
	sorted bool
}

// NewDist returns a Dist with capacity hint n.
func NewDist(n int) *Dist { return &Dist{xs: make([]float64, 0, n)} }

// Add records one sample.
func (d *Dist) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.xs) }

// Merge appends all of o's samples into d. o is unchanged; merging in a
// deterministic order keeps quantiles reproducible (ties in sort order never
// affect values, only the backing layout).
func (d *Dist) Merge(o *Dist) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

func (d *Dist) sortIfNeeded() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It returns 0 when the distribution is empty.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sortIfNeeded()
	if q <= 0 {
		return d.xs[0]
	}
	if q >= 1 {
		return d.xs[len(d.xs)-1]
	}
	pos := q * float64(len(d.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.xs[lo]
	}
	frac := pos - float64(lo)
	return d.xs[lo]*(1-frac) + d.xs[hi]*frac
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// CDFPoint is one (value, cumulative fraction) pair of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	F float64 // fraction of samples ≤ X
}

// CDF returns the empirical CDF downsampled to at most points entries
// (always including the extremes). points must be ≥ 2.
func (d *Dist) CDF(points int) []CDFPoint {
	if len(d.xs) == 0 {
		return nil
	}
	if points < 2 {
		points = 2
	}
	d.sortIfNeeded()
	n := len(d.xs)
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / (points - 1)
		out = append(out, CDFPoint{X: d.xs[idx], F: float64(idx+1) / float64(n)})
	}
	return out
}

// TimeSeries accumulates samples into fixed-width time bins, e.g. goodput
// measured every 100 ms. Times are int64 nanoseconds (simulator virtual time).
type TimeSeries struct {
	binWidth int64
	bins     []float64
	counts   []int
}

// NewTimeSeries returns a TimeSeries with the given bin width in nanoseconds.
// It panics if binWidth is not positive, since a zero width would divide by
// zero on every Add.
func NewTimeSeries(binWidth int64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: TimeSeries bin width must be positive")
	}
	return &TimeSeries{binWidth: binWidth}
}

// Add accumulates value v into the bin containing time t. Negative times are
// clamped to bin 0.
func (ts *TimeSeries) Add(t int64, v float64) {
	bin := int(t / ts.binWidth)
	if bin < 0 {
		bin = 0
	}
	for bin >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.bins[bin] += v
	ts.counts[bin]++
}

// NumBins returns the number of bins touched so far.
func (ts *TimeSeries) NumBins() int { return len(ts.bins) }

// Avg returns the mean of the samples in bin i, or 0 for an empty bin.
func (ts *TimeSeries) Avg(i int) float64 {
	if i < 0 || i >= len(ts.bins) || ts.counts[i] == 0 {
		return 0
	}
	return ts.bins[i] / float64(ts.counts[i])
}

// RatePerSecond interprets bin sums as byte (or bit) counts and returns the
// per-second rate series, one value per bin.
func (ts *TimeSeries) RatePerSecond() []float64 {
	out := make([]float64, len(ts.bins))
	secs := float64(ts.binWidth) / 1e9
	for i, v := range ts.bins {
		out[i] = v / secs
	}
	return out
}

// MeanOf returns the mean of xs, or 0 when empty.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
