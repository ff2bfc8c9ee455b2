// Package workload generates the traffic of the paper's evaluation: the
// DCTCP web-search flow-size distribution with Poisson arrivals for the
// spine–leaf experiments, and the background-pattern switcher that drives
// the online-adaptation experiments (Figures 5 and 12).
package workload

import (
	"math"
	"math/rand"
	"sort"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// SizeDist samples flow sizes from a piecewise-linear empirical CDF.
type SizeDist struct {
	sizes []float64 // bytes, ascending
	cdf   []float64 // cumulative fractions, ascending, ends at 1
	mean  float64
}

// NewSizeDist builds a distribution from (size, cumulative fraction) points.
// Points must be ascending in both coordinates and end with fraction 1.
func NewSizeDist(sizes, cdf []float64) *SizeDist {
	if len(sizes) != len(cdf) || len(sizes) < 2 {
		panic("workload: need matching size/cdf points")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] || cdf[i] < cdf[i-1] {
			panic("workload: CDF points must be ascending")
		}
	}
	if cdf[len(cdf)-1] != 1 {
		panic("workload: CDF must end at 1")
	}
	d := &SizeDist{sizes: sizes, cdf: cdf}
	// Mean of the piecewise-linear distribution: trapezoid per segment.
	prevS, prevF := sizes[0], cdf[0]
	d.mean = prevS * prevF // mass at/below the first point
	for i := 1; i < len(sizes); i++ {
		d.mean += (cdf[i] - prevF) * (sizes[i] + prevS) / 2
		prevS, prevF = sizes[i], cdf[i]
	}
	return d
}

// WebSearch returns the DCTCP paper's web-search workload (sizes in bytes),
// the distribution both §5.2 and §5.3 use. Mostly short query/response
// flows with a heavy tail of multi-megabyte background transfers.
func WebSearch() *SizeDist {
	kb := 1000.0
	return NewSizeDist(
		[]float64{1 * kb, 6 * kb, 13 * kb, 19 * kb, 33 * kb, 53 * kb, 133 * kb,
			667 * kb, 1333 * kb, 3333 * kb, 6667 * kb, 20000 * kb, 30000 * kb},
		[]float64{0.0, 0.15, 0.20, 0.30, 0.40, 0.53, 0.60, 0.70, 0.80, 0.90,
			0.95, 0.98, 1.0},
	)
}

// Sample draws one flow size in bytes (at least 1).
func (d *SizeDist) Sample(r *rand.Rand) int64 {
	return d.SampleU(r.Float64())
}

// SampleU maps one uniform draw u ∈ [0,1) to a flow size — for callers with
// their own random source (the actor sessions keep an 8-byte prng instead of
// a *rand.Rand).
func (d *SizeDist) SampleU(u float64) int64 {
	i := sort.SearchFloat64s(d.cdf, u)
	if i == 0 {
		return int64(math.Max(1, d.sizes[0]))
	}
	if i >= len(d.cdf) {
		return int64(d.sizes[len(d.sizes)-1])
	}
	lo, hi := d.cdf[i-1], d.cdf[i]
	frac := 0.0
	if hi > lo {
		frac = (u - lo) / (hi - lo)
	}
	s := d.sizes[i-1] + frac*(d.sizes[i]-d.sizes[i-1])
	if s < 1 {
		s = 1
	}
	return int64(s)
}

// Mean returns the distribution mean in bytes.
func (d *SizeDist) Mean() float64 { return d.mean }

// FlowSpec is one generated flow.
type FlowSpec struct {
	At   netsim.Time
	Src  int
	Dst  int
	Size int64
}

// Class buckets flows the way Figures 16 and 17 report FCT: short (<10 KB),
// middle (10–100 KB), long (>100 KB).
type Class int

// Flow size classes.
const (
	Short Class = iota
	Middle
	Long
)

// ClassOf buckets a flow size.
func ClassOf(sizeBytes int64) Class {
	switch {
	case sizeBytes < 10_000:
		return Short
	case sizeBytes <= 100_000:
		return Middle
	default:
		return Long
	}
}

// Generate produces n flows with Poisson arrivals at the rate that loads
// each host link to `load` of linkBps, sources and destinations drawn
// uniformly among hosts (src ≠ dst). Deterministic for a given rand source.
func Generate(r *rand.Rand, n, hosts int, load float64, linkBps int64, dist *SizeDist) []FlowSpec {
	if hosts < 2 {
		panic("workload: need at least two hosts")
	}
	// Aggregate arrival rate: load × hosts × linkBps / (mean size in bits).
	lambda := load * float64(hosts) * float64(linkBps) / (dist.Mean() * 8)
	t := 0.0
	out := make([]FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		t += r.ExpFloat64() / lambda
		src := r.Intn(hosts)
		dst := r.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		out = append(out, FlowSpec{
			At:   netsim.Time(t * 1e9),
			Src:  src,
			Dst:  dst,
			Size: dist.Sample(r),
		})
	}
	return out
}

// ChurnFlow is one short-lived flow of a churn workload: it opens, issues a
// handful of fast-path queries across its lifetime, and either closes with a
// FIN or goes silent and idles out of the flow cache.
type ChurnFlow struct {
	ID      netsim.FlowID
	Open    netsim.Time // arrival (first query)
	Close   netsim.Time // last activity; ≥ Open
	Queries int         // total queries across [Open, Close], ≥ 1
	Fin     bool        // close with FIN (explicit cache drop) vs idle out
}

// GenerateChurnAt produces n short flows with Poisson arrivals at ratePerSec
// (aggregate flows/second) and exponentially distributed lifetimes with the
// given mean — the churn profile that stresses a flow cache: at any instant
// ~ratePerSec×meanLife flows are live, and the whole population turns over
// continuously. finFrac of flows end with a FIN; the rest stop querying and
// must be reclaimed by the cache's idle sweeper. Each flow issues 1–4
// queries. Deterministic for a given rand source.
//
// Flow IDs start at baseID+1 and arrivals at baseTime, so several
// populations can be layered in one experiment (scenario churn over session
// actors) without colliding on FlowID(i+1) or restarting the clock at zero.
// An arrival later than 2^62 ns (≈ 146 years, past any run) opens at that
// horizon instead of overflowing into a negative time.
func GenerateChurnAt(r *rand.Rand, n int, ratePerSec float64, meanLife netsim.Time, finFrac float64, baseID netsim.FlowID, baseTime netsim.Time) []ChurnFlow {
	if n < 0 || ratePerSec <= 0 || meanLife <= 0 {
		panic("workload: GenerateChurnAt needs n >= 0, ratePerSec > 0, meanLife > 0")
	}
	out := make([]ChurnFlow, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += r.ExpFloat64() / ratePerSec
		life := netsim.Time(r.ExpFloat64() * float64(meanLife))
		open := baseTime + netsim.Time(math.Min(t*1e9, 1<<62))
		out = append(out, ChurnFlow{
			ID:      baseID + netsim.FlowID(i+1),
			Open:    open,
			Close:   open + life,
			Queries: 1 + r.Intn(4),
			Fin:     r.Float64() < finFrac,
		})
	}
	return out
}

// RateSetter is anything whose sending rate can be changed live; the tcp
// UDPSource implements it.
type RateSetter interface {
	SetRate(bps int64)
}

// PatternSwitcher randomly re-draws a background traffic rate on a fixed
// period — the "randomly change the traffic pattern every 20 minutes" setup
// of the adaptation experiments, time-scaled to the simulation.
type PatternSwitcher struct {
	Eng    *netsim.Engine
	Target RateSetter
	// Period between switches.
	Period netsim.Time
	// Rates to draw from (uniformly, never repeating the current one).
	Rates []int64

	rng     *rand.Rand
	current int
	running bool
	// gen invalidates the pending tick of a previous run: a Stop→Start
	// cycle would otherwise let the old callback observe running==true and
	// re-arm, leaving two concurrent switch chains (the flowcache sweeper's
	// generation-counter pattern).
	gen int
	// Switches counts pattern *changes* applied — the initial rate is the
	// starting pattern, not a switch.
	Switches int
}

// NewPatternSwitcher returns a switcher driving target through rates.
func NewPatternSwitcher(eng *netsim.Engine, target RateSetter, period netsim.Time, rates []int64, seed int64) *PatternSwitcher {
	if len(rates) < 2 {
		panic("workload: need at least two rates to switch between")
	}
	return &PatternSwitcher{Eng: eng, Target: target, Period: period, Rates: rates,
		rng: rand.New(rand.NewSource(seed))}
}

// StartAt starts switching from Rates[idx] as the initial pattern.
func (p *PatternSwitcher) StartAt(idx int) {
	if p.running {
		return
	}
	if idx < 0 || idx >= len(p.Rates) {
		panic("workload: StartAt index out of range")
	}
	p.running = true
	p.gen++
	p.apply(idx)
	p.tick(p.gen)
}

// Stop halts switching after the pending period elapses. A later Start
// begins a fresh switch chain; the old pending tick dies on the generation
// check instead of re-arming alongside it.
func (p *PatternSwitcher) Stop() { p.running = false }

func (p *PatternSwitcher) apply(idx int) {
	p.current = idx
	p.Target.SetRate(p.Rates[idx])
}

func (p *PatternSwitcher) tick(gen int) {
	p.Eng.After(p.Period, func() {
		if !p.running || p.gen != gen {
			return
		}
		next := p.rng.Intn(len(p.Rates) - 1)
		if next >= p.current {
			next++
		}
		p.apply(next)
		p.Switches++
		p.tick(gen)
	})
}
