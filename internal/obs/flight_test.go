package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestFlightRecorderSampleAndWindow: counters and gauge views record directly,
// histograms expand into _count/_sum/_p50/_p99 sub-series, and Window slices
// by virtual time.
func TestFlightRecorderSampleAndWindow(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("liteflow_test_q_total", "")
	var depth float64
	obs.GaugeOf(obs.New(reg, nil), "liteflow_test_depth", "", &depth)
	h := reg.Histogram("liteflow_test_ns", "", []float64{100, 1000, 10000})

	fr := obs.NewFlightRecorder(16)
	for i := 1; i <= 4; i++ {
		c.Add(10)
		depth = float64(i)
		h.Observe(float64(i) * 200)
		fr.Sample(reg, int64(i)*1000)
	}
	if fr.Ticks() != 4 {
		t.Fatalf("ticks = %d, want 4", fr.Ticks())
	}

	ws := fr.Window(2000, 3000)
	byName := map[string]obs.SeriesWindow{}
	for _, w := range ws {
		byName[w.Name] = w
	}
	cw, ok := byName["liteflow_test_q_total"]
	if !ok || len(cw.Points) != 2 || !cw.Cumulative {
		t.Fatalf("counter window wrong: %+v", cw)
	}
	if cw.Points[0].V != 20 || cw.Points[1].V != 30 {
		t.Fatalf("counter points wrong: %+v", cw.Points)
	}
	if _, ok := byName["liteflow_test_ns_p99"]; !ok {
		t.Fatalf("histogram quantile sub-series missing; have %v", names(ws))
	}
	if gw := byName["liteflow_test_depth"]; gw.Cumulative {
		t.Fatal("gauge marked cumulative")
	}
}

func names(ws []obs.SeriesWindow) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// TestFlightRecorderDelta: the canary-gate primitive. A counter whose rate
// halves between windows must report the regression; a gauge reports mean
// level change.
func TestFlightRecorderDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("liteflow_test_goodput_total", "")
	var lat float64
	obs.GaugeOf(obs.New(reg, nil), "liteflow_test_lat", "", &lat)

	fr := obs.NewFlightRecorder(64)
	// Before: 10 units per 1000 ns tick. After: 5 per tick, latency doubles.
	at := int64(0)
	for i := 0; i < 5; i++ {
		c.Add(10)
		lat = 100
		at += 1000
		fr.Sample(reg, at)
	}
	for i := 0; i < 5; i++ {
		c.Add(5)
		lat = 200
		at += 1000
		fr.Sample(reg, at)
	}

	deltas := fr.Delta(obs.TimeWindow{From: 1000, To: 5000}, obs.TimeWindow{From: 6000, To: 10000})
	var cd, gd *obs.SeriesDelta
	for i := range deltas {
		switch deltas[i].Name {
		case "liteflow_test_goodput_total":
			cd = &deltas[i]
		case "liteflow_test_lat":
			gd = &deltas[i]
		}
	}
	if cd == nil || gd == nil {
		t.Fatalf("missing series in delta: %+v", deltas)
	}
	// 10 per 1000ns = 1e7/s before, 5e6/s after.
	if cd.Before != 1e7 || cd.After != 5e6 || !cd.Cumulative {
		t.Fatalf("counter delta wrong: %+v", cd)
	}
	if gd.Before != 100 || gd.After != 200 || gd.Cumulative {
		t.Fatalf("gauge delta wrong: %+v", gd)
	}
}

// TestFlightRecorderRingEviction: rings keep the most recent points.
func TestFlightRecorderRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("liteflow_test_n_total", "")
	fr := obs.NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		c.Inc()
		fr.Sample(reg, int64(i))
	}
	w := fr.Window(0, 100)
	if len(w) != 1 || len(w[0].Points) != 4 {
		t.Fatalf("ring retained wrong points: %+v", w)
	}
	if w[0].Points[0].At != 7 || w[0].Points[3].At != 10 {
		t.Fatalf("ring did not keep most recent: %+v", w[0].Points)
	}
}

// TestFlightRecorderMergeMatchesSerial: folding per-job recorders in job
// order must byte-match one recorder that absorbed the same samples
// serially — the §4d obligation for -flight-out.
func TestFlightRecorderMergeMatchesSerial(t *testing.T) {
	sample := func(fr *obs.FlightRecorder, base int64) {
		reg := obs.NewRegistry()
		c := reg.Counter("liteflow_test_n_total", "")
		h := reg.Histogram("liteflow_test_ns", "", []float64{10, 100})
		for i := int64(1); i <= 3; i++ {
			c.Add(i)
			h.Observe(float64(i * 7))
			fr.Sample(reg, base+i*100)
		}
	}
	serial := obs.NewFlightRecorder(32)
	sample(serial, 0)
	sample(serial, 1000)

	a, b := obs.NewFlightRecorder(32), obs.NewFlightRecorder(32)
	sample(a, 0)
	sample(b, 1000)
	merged := obs.NewFlightRecorder(32)
	merged.Merge(a)
	merged.Merge(b)

	var sw, mw bytes.Buffer
	if err := serial.WriteJSONL(&sw); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSONL(&mw); err != nil {
		t.Fatal(err)
	}
	if sw.String() != mw.String() {
		t.Fatalf("merged recording differs from serial:\n--- serial\n%s--- merged\n%s", sw.String(), mw.String())
	}
	if merged.Ticks() != serial.Ticks() {
		t.Fatalf("ticks: merged %d, serial %d", merged.Ticks(), serial.Ticks())
	}
}

// TestFlightRecorderJSONL: every line is valid JSON with the expected keys,
// and the export is deterministic.
func TestFlightRecorderJSONL(t *testing.T) {
	build := func() string {
		reg := obs.NewRegistry()
		reg.Counter("liteflow_test_n_total", "", obs.Label{Key: "job", Value: "a"}).Add(3)
		lvl := 1.5
		obs.GaugeOf(obs.New(reg, nil), "liteflow_test_lvl", "", &lvl)
		fr := obs.NewFlightRecorder(8)
		fr.Sample(reg, 42)
		var b bytes.Buffer
		if err := fr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := build()
	if out != build() {
		t.Fatal("flight JSONL is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	for _, l := range lines {
		var rec struct {
			Series string  `json:"series"`
			Kind   string  `json:"kind"`
			At     int64   `json:"at"`
			V      float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("invalid line %q: %v", l, err)
		}
		if rec.At != 42 || rec.Series == "" || rec.Kind == "" {
			t.Fatalf("line missing fields: %q", l)
		}
	}
	if !strings.Contains(out, `liteflow_test_n_total{job=\"a\"}`) &&
		!strings.Contains(out, `liteflow_test_n_total{job=`) {
		t.Fatalf("labeled series identity missing:\n%s", out)
	}

	// Nil recorder writes nothing and does not error.
	var nilFR *obs.FlightRecorder
	if err := nilFR.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	nilFR.Sample(obs.NewRegistry(), 0)
	if nilFR.Delta(obs.TimeWindow{}, obs.TimeWindow{}) != nil {
		t.Fatal("nil recorder returned deltas")
	}
}

// TestFlightSampleAllocatesNothing: each series renders its flight keys once,
// when it registers, and a tick sorts nothing, so once the rings exist a
// Sample of a labelled counter and a histogram allocates nothing.
func TestFlightSampleAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("liteflow_test_q_total", "", obs.Label{Key: "path", Value: "fast"})
	h := reg.Histogram("liteflow_test_ns", "", []float64{100, 1000})
	fr := obs.NewFlightRecorder(16)
	at := int64(0)
	tick := func() {
		at++
		c.Add(1)
		h.Observe(float64(at))
		fr.Sample(reg, at)
	}
	tick()
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("Sample allocates %v per tick, want 0", n)
	}
}

// TestFlightSampleFullRingsZeroAllocs: once every series' ring has grown to
// its capacity, a Sample that evicts the oldest point of each allocates
// nothing.
func TestFlightSampleFullRingsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the plain job")
	}
	reg := obs.NewRegistry()
	c := reg.Counter("liteflow_test_q_total", "", obs.Label{Key: "path", Value: "fast"})
	h := reg.Histogram("liteflow_test_ns", "", []float64{100, 1000})
	const capacity = 8
	fr := obs.NewFlightRecorder(capacity)
	at := int64(0)
	tick := func() {
		at++
		c.Add(1)
		h.Observe(float64(at))
		fr.Sample(reg, at)
	}
	for range capacity {
		tick()
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("Sample into full rings allocates %v per tick, want 0", n)
	}
	if w := fr.Window(0, at); len(w) == 0 || len(w[0].Points) != capacity || w[0].Points[0].At != at-capacity+1 {
		t.Errorf("the rings keep %v, want the newest %d points of each series", w, capacity)
	}
}
