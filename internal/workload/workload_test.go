package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

func TestWebSearchDistribution(t *testing.T) {
	d := WebSearch()
	r := rand.New(rand.NewSource(1))
	var short, mid, long int
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		sum += float64(s)
		switch ClassOf(s) {
		case Short:
			short++
		case Middle:
			mid++
		default:
			long++
		}
	}
	// The web-search workload is mostly short flows with a heavy tail.
	if float64(short)/n < 0.10 || float64(short)/n > 0.30 {
		t.Errorf("short fraction = %.3f", float64(short)/n)
	}
	if float64(long)/n < 0.30 || float64(long)/n > 0.55 {
		t.Errorf("long fraction = %.3f", float64(long)/n)
	}
	// Empirical mean should be near the analytic mean.
	mean := sum / n
	if mean < d.Mean()*0.9 || mean > d.Mean()*1.1 {
		t.Errorf("empirical mean %.0f vs analytic %.0f", mean, d.Mean())
	}
	if d.Mean() < 500_000 || d.Mean() > 3_000_000 {
		t.Errorf("web-search mean = %.0f bytes, expected ~MB scale", d.Mean())
	}
}

func TestSizeDistValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSizeDist([]float64{1}, []float64{1}) },
		func() { NewSizeDist([]float64{1, 2}, []float64{0.5, 0.9}) },  // doesn't end at 1
		func() { NewSizeDist([]float64{2, 1}, []float64{0.5, 1}) },    // sizes descending
		func() { NewSizeDist([]float64{1, 2}, []float64{0.9, 0.5}) },  // cdf descending
		func() { NewSizeDist([]float64{1, 2, 3}, []float64{0.5, 1}) }, // length mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid CDF must panic")
				}
			}()
			fn()
		}()
	}
}

func TestSampleWithinBounds(t *testing.T) {
	d := WebSearch()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := d.Sample(r)
			if s < 1 || s > 30_000_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[int64]Class{
		100:       Short,
		9_999:     Short,
		10_000:    Middle,
		100_000:   Middle,
		100_001:   Long,
		5_000_000: Long,
	}
	for size, want := range cases {
		if got := ClassOf(size); got != want {
			t.Errorf("ClassOf(%d) = %v, want %v", size, got, want)
		}
	}
	for _, c := range []Class{Short, Middle, Long} {
		if c.String() == "" {
			t.Error("class must render")
		}
	}
}

func TestGenerateFlows(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	flows := Generate(r, 1000, 32, 0.4, 10e9, WebSearch())
	if len(flows) != 1000 {
		t.Fatalf("generated %d flows", len(flows))
	}
	prev := netsim.Time(-1)
	for _, f := range flows {
		if f.At < prev {
			t.Fatal("arrivals must be nondecreasing")
		}
		prev = f.At
		if f.Src == f.Dst {
			t.Fatal("src == dst")
		}
		if f.Src < 0 || f.Src >= 32 || f.Dst < 0 || f.Dst >= 32 {
			t.Fatal("host out of range")
		}
		if f.Size < 1 {
			t.Fatal("non-positive size")
		}
	}
	// Arrival rate should roughly produce the requested load: expected
	// duration for 1000 flows at λ = 0.4·32·10e9/(mean·8).
	lambda := 0.4 * 32 * 10e9 / (WebSearch().Mean() * 8)
	expected := netsim.Time(float64(1000) / lambda * 1e9)
	last := flows[len(flows)-1].At
	if last < expected/2 || last > expected*2 {
		t.Errorf("span = %v, expected ≈ %v", last, expected)
	}
}

func TestGenerateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("hosts < 2 must panic")
		}
	}()
	Generate(rand.New(rand.NewSource(1)), 1, 1, 0.5, 1e9, WebSearch())
}

type fakeRate struct{ rates []int64 }

func (f *fakeRate) SetRate(bps int64) { f.rates = append(f.rates, bps) }

func TestPatternSwitcher(t *testing.T) {
	eng := netsim.NewEngine()
	tgt := &fakeRate{}
	var switches []netsim.Time
	p := NewPatternSwitcher(eng, tgt, 100*netsim.Millisecond, []int64{100, 200, 300}, 7)
	p.OnSwitch = func(at netsim.Time, bps int64) { switches = append(switches, at) }
	p.Start()
	eng.RunUntil(550 * netsim.Millisecond)
	p.Stop()
	if len(tgt.rates) < 5 {
		t.Fatalf("got %d rate changes, want ≥ 5", len(tgt.rates))
	}
	for i := 1; i < len(tgt.rates); i++ {
		if tgt.rates[i] == tgt.rates[i-1] {
			t.Error("switcher must never repeat the current rate")
		}
	}
	if switches[0] != 0 {
		t.Error("first rate applies immediately")
	}
}

// TestPatternSwitcherCountsOnlyChanges pins the Switches semantics: the
// initial rate is the starting pattern (not counted), every later change is.
func TestPatternSwitcherCountsOnlyChanges(t *testing.T) {
	eng := netsim.NewEngine()
	tgt := &fakeRate{}
	p := NewPatternSwitcher(eng, tgt, 100*netsim.Millisecond, []int64{100, 200, 300}, 7)
	p.Start()
	if p.Switches != 0 {
		t.Fatalf("Switches = %d right after Start, want 0 (initial apply is not a switch)", p.Switches)
	}
	eng.RunUntil(550 * netsim.Millisecond)
	if want := len(tgt.rates) - 1; p.Switches != want {
		t.Errorf("Switches = %d, want %d (rate applications minus the initial one)", p.Switches, want)
	}
}

// TestPatternSwitcherFirstRateSeedDependent: Start draws the initial rate
// from the rng, so different seeds must be able to start on different rates
// (the old behavior always started at Rates[0]).
func TestPatternSwitcherFirstRateSeedDependent(t *testing.T) {
	first := func(seed int64) int64 {
		eng := netsim.NewEngine()
		tgt := &fakeRate{}
		p := NewPatternSwitcher(eng, tgt, netsim.Second, []int64{100, 200, 300}, seed)
		p.Start()
		return tgt.rates[0]
	}
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 20; seed++ {
		seen[first(seed)] = true
	}
	if len(seen) < 2 {
		t.Errorf("20 seeds all started on the same rate %v; first rate must come from the rng", seen)
	}
}

// TestPatternSwitcherStartAtPins: StartAt fixes the initial pattern for
// callers whose premise depends on it (the adaptation experiments train the
// frozen model on Rates[0]).
func TestPatternSwitcherStartAtPins(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		eng := netsim.NewEngine()
		tgt := &fakeRate{}
		p := NewPatternSwitcher(eng, tgt, netsim.Second, []int64{100, 200, 300}, seed)
		p.StartAt(2)
		if tgt.rates[0] != 300 {
			t.Fatalf("seed %d: StartAt(2) applied %d, want 300", seed, tgt.rates[0])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("StartAt out of range must panic")
		}
	}()
	NewPatternSwitcher(netsim.NewEngine(), &fakeRate{}, 1, []int64{1, 2}, 1).StartAt(2)
}

// TestPatternSwitcherStopStartNoDoubleChain is the Stop→Start regression:
// the pending tick of the stopped run must die on the generation check
// instead of re-arming a second concurrent switch chain (which doubled
// Switches counting and rate draws).
func TestPatternSwitcherStopStartNoDoubleChain(t *testing.T) {
	eng := netsim.NewEngine()
	tgt := &fakeRate{}
	period := 100 * netsim.Millisecond
	p := NewPatternSwitcher(eng, tgt, period, []int64{100, 200, 300}, 7)
	p.Start()
	// Stop mid-period and restart immediately: the old tick (scheduled by
	// the first run) is still pending and fires after the restart.
	eng.At(250*netsim.Millisecond, func() {
		p.Stop()
		p.Start()
	})
	eng.RunUntil(1050 * netsim.Millisecond)
	p.Stop()
	// One healthy chain applies ~1 rate per period after restart. A doubled
	// chain applies ~2 per period. 10 periods + 2 initial applies + slack.
	if len(tgt.rates) > 13 {
		t.Errorf("%d rate applications over 10 periods — double switch chain after Stop→Start", len(tgt.rates))
	}
	// The chain must still be alive (the restart did not kill switching).
	if len(tgt.rates) < 9 {
		t.Errorf("only %d rate applications — switcher died after Stop→Start", len(tgt.rates))
	}
}

func TestPatternSwitcherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-rate switcher must panic")
		}
	}()
	NewPatternSwitcher(netsim.NewEngine(), &fakeRate{}, 1, []int64{5}, 1)
}

func TestGenerateChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 20000
	rate := 10000.0
	meanLife := 30 * netsim.Millisecond
	flows := GenerateChurn(r, n, rate, meanLife, 0.7)
	if len(flows) != n {
		t.Fatalf("got %d flows, want %d", len(flows), n)
	}
	var fins, queries int
	var lifeSum float64
	prev := netsim.Time(-1)
	for i, f := range flows {
		if f.ID != netsim.FlowID(i+1) {
			t.Fatalf("flow %d: ID = %d, IDs must be dense from 1", i, f.ID)
		}
		if f.Open < prev {
			t.Fatalf("flow %d opens at %d before predecessor %d — arrivals must be ordered", i, f.Open, prev)
		}
		prev = f.Open
		if f.Close < f.Open {
			t.Fatalf("flow %d closes before it opens", i)
		}
		if f.Queries < 1 || f.Queries > 4 {
			t.Fatalf("flow %d: Queries = %d, want 1..4", i, f.Queries)
		}
		if f.Fin {
			fins++
		}
		queries += f.Queries
		lifeSum += float64(f.Close - f.Open)
	}
	// Statistical shape, generous bounds: Poisson arrival span ≈ n/rate
	// seconds, exponential mean life ≈ meanLife, FIN fraction ≈ 0.7.
	span := float64(flows[n-1].Open) / 1e9
	if want := n / rate; span < want/2 || span > want*2 {
		t.Errorf("arrival span = %.3fs, want ~%.3fs", span, want)
	}
	if mean := lifeSum / n; mean < 0.8*float64(meanLife) || mean > 1.2*float64(meanLife) {
		t.Errorf("mean life = %.0fns, want ~%d", mean, meanLife)
	}
	if frac := float64(fins) / n; frac < 0.65 || frac > 0.75 {
		t.Errorf("FIN fraction = %.3f, want ~0.7", frac)
	}
	if avg := float64(queries) / n; avg < 2 || avg > 3 {
		t.Errorf("avg queries/flow = %.2f, want ~2.5", avg)
	}

	// Determinism: same seed, same flows.
	again := GenerateChurn(rand.New(rand.NewSource(7)), n, rate, meanLife, 0.7)
	for i := range flows {
		if flows[i] != again[i] {
			t.Fatalf("flow %d differs between same-seed generations", i)
		}
	}
}

// TestGenerateChurnAtOffsets: two populations composed in one experiment
// must not collide on flow IDs, and the second population's clock starts at
// its base time.
func TestGenerateChurnAtOffsets(t *testing.T) {
	a := GenerateChurnAt(rand.New(rand.NewSource(1)), 100, 1000, netsim.Millisecond, 0.5, 0, 0)
	base := a[len(a)-1].ID
	b := GenerateChurnAt(rand.New(rand.NewSource(2)), 100, 1000, netsim.Millisecond, 0.5,
		base, netsim.Second)
	ids := make(map[netsim.FlowID]bool)
	for _, f := range a {
		ids[f.ID] = true
	}
	for _, f := range b {
		if ids[f.ID] {
			t.Fatalf("flow ID %d collides across populations", f.ID)
		}
		if f.Open < netsim.Second {
			t.Fatalf("flow %d opens at %v, before the base time", f.ID, f.Open)
		}
	}
	// GenerateChurn must stay the zero-base special case.
	c := GenerateChurn(rand.New(rand.NewSource(1)), 100, 1000, netsim.Millisecond, 0.5)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("GenerateChurn != GenerateChurnAt(base 0)")
		}
	}
}

func TestGenerateChurnValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive rate must panic")
		}
	}()
	GenerateChurn(rand.New(rand.NewSource(1)), 1, 0, netsim.Millisecond, 0.5)
}

// TestGenerateChurnLateArrivalsStayPositive: at one arrival per ~30,000 years
// the open times pass int64 nanoseconds; they must stop at the horizon, not
// wrap negative (a negative open is an event scheduled in the past).
func TestGenerateChurnLateArrivalsStayPositive(t *testing.T) {
	for _, f := range GenerateChurn(rand.New(rand.NewSource(1)), 3, 1e-12, netsim.Millisecond, 0.5) {
		if f.Open <= 0 || f.Close < f.Open {
			t.Fatalf("flow %d opens at %d, closes at %d", f.ID, f.Open, f.Close)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	d := WebSearch()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Sample(r)
	}
}
