package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.n != 5 {
		t.Fatalf("N = %d, want 5", s.n)
	}
	if !almost(s.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if !almost(s.Var(), 2, 1e-12) {
		t.Errorf("Var = %v, want 2", s.Var())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 {
		t.Errorf("empty summary must report zeros, got %+v", s)
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 {
		t.Errorf("single sample summary wrong: %+v", s)
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if !almost(s.Mean(), 0, 1e-12) || !almost(s.Var(), 25, 1e-12) {
		t.Errorf("negative handling wrong: %+v", s)
	}
}

// Property: Welford mean matches the naive mean for arbitrary inputs.
func TestSummaryMeanMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		sum := 0.0
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
		}
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		if len(clean) == 0 {
			return s.Mean() == 0
		}
		want := sum / float64(len(clean))
		return almost(s.Mean(), want, 1e-6*(1+math.Abs(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistQuantiles(t *testing.T) {
	d := NewDist(0)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := d.Quantile(c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist(0)
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.CDF() != nil {
		t.Error("empty Dist must return zero values and nil CDF")
	}
}

func TestDistAddAfterQuantileResorts(t *testing.T) {
	d := NewDist(0)
	d.Add(10)
	d.Add(20)
	_ = d.Quantile(0.5) // forces a sort
	d.Add(1)            // must invalidate the cached order
	if got := d.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) after late Add = %v, want 1", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	d := NewDist(0)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d.Add(r.NormFloat64())
	}
	pts := d.CDF()
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1]; last.F != 1 {
		t.Errorf("last CDF fraction = %v, want 1", last.F)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDist(0)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			d.Add(r.Float64()*1000 - 500)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := d.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return d.Quantile(0) <= d.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(1e9) // 1-second bins
	ts.Add(0, 10)
	ts.Add(5e8, 20)
	ts.Add(15e8, 5)
	if ts.NumBins() != 2 {
		t.Fatalf("NumBins = %d, want 2", ts.NumBins())
	}
	if ts.bins[0] != 30 || ts.bins[1] != 5 {
		t.Errorf("Sum = %v,%v want 30,5", ts.bins[0], ts.bins[1])
	}
	if ts.counts[0] != 2 || ts.Avg(0) != 15 {
		t.Errorf("Count/Avg(0) = %d/%v want 2/15", ts.counts[0], ts.Avg(0))
	}
	rates := ts.RatePerSecond()
	if rates[0] != 30 || rates[1] != 5 {
		t.Errorf("rates = %v", rates)
	}
}

func TestTimeSeriesNegativeTimeClamps(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Add(-50, 7)
	if ts.bins[0] != 7 {
		t.Errorf("negative time must land in bin 0, got %v", ts.bins[0])
	}
}

func TestTimeSeriesZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTimeSeries(0) must panic")
		}
	}()
	NewTimeSeries(0)
}

func TestTimeSeriesOutOfRangeQueries(t *testing.T) {
	ts := NewTimeSeries(10)
	if ts.Avg(99) != 0 {
		t.Error("out-of-range queries must return 0")
	}
}

func TestMeanOf(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Error("MeanOf(nil) must be 0")
	}
	if got := MeanOf([]float64{1, 2, 3}); !almost(got, 2, 1e-12) {
		t.Errorf("MeanOf = %v, want 2", got)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
	}
}

func BenchmarkDistQuantile(b *testing.B) {
	d := NewDist(10000)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		d.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Quantile(0.99)
	}
}
