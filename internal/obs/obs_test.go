package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := obs.NewRegistry()
	sc := obs.New(reg, nil)

	c := sc.Counter("liteflow_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same instrument.
	if sc.Counter("liteflow_test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are distinct series.
	c2 := sc.Counter("liteflow_test_ops_total", "ops", obs.Label{Key: "k", Value: "v"})
	if c2 == c {
		t.Fatal("labeled series aliases the unlabeled one")
	}

	// A gauge view reads its field when the registry is read.
	level := 2.5
	obs.GaugeOf(sc, "liteflow_test_level", "level", &level)
	level = 1.5
	if got := reg.Value("liteflow_test_level"); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if got := reg.Value("liteflow_test_ops_total", obs.Label{Key: "k", Value: "v"}); got != 0 {
		t.Fatalf("untouched series = %g, want 0", got)
	}
	if got := reg.Value("liteflow_test_missing"); got != 0 {
		t.Fatalf("missing series = %g, want 0", got)
	}
}

// TestCounterViewsSum: counter views on one series export their sum — the
// bytes one shared owned counter exported for the same counts — and
// Registry.Value reads that sum.
func TestCounterViewsSum(t *testing.T) {
	views, owned := obs.NewRegistry(), obs.NewRegistry()
	a, b := int64(0), int64(0)
	vsc := obs.New(views, nil).With(obs.Label{Key: "host", Value: "0"})
	vsc.CounterOf("liteflow_test_n_total", "n", &a, obs.Label{Key: "kind", Value: "x"})
	vsc.CounterOf("liteflow_test_n_total", "n", &b, obs.Label{Key: "kind", Value: "x"})
	shared := obs.New(owned, nil).With(obs.Label{Key: "host", Value: "0"}).
		Counter("liteflow_test_n_total", "n", obs.Label{Key: "kind", Value: "x"})
	a, b = 3, 4
	shared.Add(7)
	if got, want := string(views.PrometheusText()), string(owned.PrometheusText()); got != want {
		t.Fatalf("views export\n%s\nowned counter exports\n%s", got, want)
	}
	lbl := []obs.Label{{Key: "host", Value: "0"}, {Key: "kind", Value: "x"}}
	if got := views.Value("liteflow_test_n_total", lbl...); got != 7 {
		t.Fatalf("Value = %g, want 7", got)
	}
}

// TestViewMixingPanics: a series is either an owned counter or views, and it
// has at most one gauge view; either panic names the series.
func TestViewMixingPanics(t *testing.T) {
	var n int64
	var g float64
	for name, mix := range map[string]func(sc obs.Scope){
		"second gauge view": func(sc obs.Scope) {
			obs.GaugeOf(sc, "liteflow_test_g", "", &g)
			obs.GaugeOf(sc, "liteflow_test_g", "", &g)
		},
		"view after owned": func(sc obs.Scope) {
			sc.Counter("liteflow_test_c_total", "")
			sc.CounterOf("liteflow_test_c_total", "", &n)
		},
		"owned after view": func(sc obs.Scope) {
			sc.CounterOf("liteflow_test_c_total", "", &n)
			sc.Counter("liteflow_test_c_total", "")
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "liteflow_test_") {
					t.Errorf("%s: recovered %v, want a panic naming the series", name, r)
				}
			}()
			mix(obs.New(obs.NewRegistry(), nil))
		}()
	}
}

// TestNopScopeViewsAllocateNothing: registering views on the no-op scope
// returns at once.
func TestNopScopeViewsAllocateNothing(t *testing.T) {
	type fields struct {
		n int64
		g float64
		e int
	}
	f := &fields{}
	sc := obs.Scope{}
	allocs := testing.AllocsPerRun(1000, func() {
		sc.CounterOf("liteflow_test_n_total", "n", &f.n, obs.Label{Key: "kind", Value: "x"})
		obs.GaugeOf(sc, "liteflow_test_g", "g", &f.g)
		obs.GaugeOf(sc, "liteflow_test_e", "e", &f.e, obs.Label{Key: "member", Value: "1"})
	})
	if allocs != 0 {
		t.Fatalf("registering on the no-op scope allocates %.1f times, want 0", allocs)
	}
}

// TestForkViewsMatchOwned: a child whose counter is a view, folded through a
// Fork join, exports the bytes of a child whose counter is an owned
// instrument.
func TestForkViewsMatchOwned(t *testing.T) {
	run := func(views bool) string {
		reg := obs.NewRegistry()
		parent := obs.New(reg, nil).With(obs.Label{Key: "host", Value: "1"})
		for job := int64(1); job <= 2; job++ {
			child, _, join := obs.Fork(parent, nil)
			n, level := 10*job, float64(job)/4
			if views {
				child.CounterOf("liteflow_test_n_total", "n", &n)
			} else {
				child.Counter("liteflow_test_n_total", "n").Add(n)
			}
			obs.GaugeOf(child, "liteflow_test_level", "level", &level)
			child.Histogram("liteflow_test_ns", "ns", obs.DurationBuckets()).Observe(float64(job) * 1e4)
			join()
		}
		return string(reg.PrometheusText())
	}
	if v, o := run(true), run(false); v != o {
		t.Fatalf("view-backed fold\n%s\ninstrument-backed fold\n%s", v, o)
	}
}

func TestHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	sc := obs.New(reg, nil)
	h := sc.Histogram("liteflow_test_dur_ns", "durations", []float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 5556 {
		t.Fatalf("sum = %g, want 5556", h.Sum())
	}
	if h.Max() != 5000 {
		t.Fatalf("max = %g, want 5000", h.Max())
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`liteflow_test_dur_ns_bucket{le="10"} 2`,
		`liteflow_test_dur_ns_bucket{le="100"} 3`,
		`liteflow_test_dur_ns_bucket{le="1000"} 4`,
		`liteflow_test_dur_ns_bucket{le="+Inf"} 5`,
		`liteflow_test_dur_ns_sum 5556`,
		`liteflow_test_dur_ns_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := obs.NewRegistry()
	sc := obs.New(reg, nil).With(obs.Label{Key: "host", Value: "0"})
	sc.Counter("liteflow_test_b_total", "bees", obs.Label{Key: "kind", Value: "x"}).Add(7)
	level := 3.0
	obs.GaugeOf(sc, "liteflow_test_a_level", "level", &level)

	out := string(reg.PrometheusText())
	// Families sorted by name; scope labels precede instrument labels.
	ai := strings.Index(out, "liteflow_test_a_level")
	bi := strings.Index(out, "liteflow_test_b_total")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("families out of order:\n%s", out)
	}
	if !strings.Contains(out, `liteflow_test_b_total{host="0",kind="x"} 7`) {
		t.Errorf("label ordering wrong:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE liteflow_test_b_total counter") ||
		!strings.Contains(out, "# TYPE liteflow_test_a_level gauge") {
		t.Errorf("missing TYPE lines:\n%s", out)
	}
	if !strings.Contains(out, "# HELP liteflow_test_b_total bees") {
		t.Errorf("missing HELP line:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("liteflow_test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	var level float64
	obs.GaugeOf(obs.New(reg, nil), "liteflow_test_x", "", &level)
}

func TestNopScopeStillCounts(t *testing.T) {
	sc := obs.Scope{}
	if sc.Registry() != nil || sc.Tracer() != nil {
		t.Fatal("nop scope claims to be enabled")
	}
	c := sc.Counter("x", "")
	c.Add(3)
	if c.Value() != 3 {
		t.Fatalf("nop-scope counter lost counts: %d", c.Value())
	}
	h := sc.Histogram("y", "", obs.DurationBuckets())
	h.Observe(42)
	if h.Count() != 1 {
		t.Fatal("nop-scope histogram lost observations")
	}
	// Nil instruments (fields never wired) must be safe no-ops.
	var nc *obs.Counter
	nc.Inc()
	var nh *obs.Histogram
	nh.Observe(1)
	sc.Event("a", "b", 0)
	sc.Event1("a", "b", 0, "k", 1)
	sc.Span("a", "b", 0, 10)
}

func TestTracerRing(t *testing.T) {
	tr := obs.NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(obs.Event{At: int64(i), Cat: "c", Name: "n"})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	ev := tr.Events()
	if ev[0].At != 2 || ev[3].At != 5 {
		t.Fatalf("ring order wrong: %+v", ev)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Evicted() != 0 {
		t.Fatal("reset did not clear the ring")
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := obs.NewTracer(16)
	sc := obs.New(nil, tr)
	sc.Event("flowcache", "hit", 1500)
	sc.Event2("netlink", "flush", 2000, "msgs", 3, "bytes", 120)
	sc.EventStr("snapshot", "install", 2500, "model", `sn"ap`)
	sc.Span1("snapshot", "stall", 3000, 250, "flow", 7)

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("invalid chrome trace JSON:\n%s", b.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ts"] != 1.5 {
		t.Errorf("ts = %v, want 1.5 µs", doc.TraceEvents[0]["ts"])
	}
	if doc.TraceEvents[3]["ph"] != "X" || doc.TraceEvents[3]["dur"] != 0.25 {
		t.Errorf("span event wrong: %v", doc.TraceEvents[3])
	}

	var jb bytes.Buffer
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("invalid JSONL line: %s", l)
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() ([]byte, []byte) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(64)
		sc := obs.New(reg, tr)
		for i := 0; i < 10; i++ {
			sc.Counter("liteflow_test_n_total", "").Inc()
			sc.Histogram("liteflow_test_h", "", obs.DurationBuckets()).Observe(float64(i) * 1e4)
			sc.Event1("c", "e", int64(i)*100, "i", int64(i))
		}
		var tb bytes.Buffer
		tr.WriteChromeTrace(&tb)
		return reg.PrometheusText(), tb.Bytes()
	}
	p1, t1 := build()
	p2, t2 := build()
	if !bytes.Equal(p1, p2) {
		t.Error("prometheus export is not byte-identical")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("chrome trace export is not byte-identical")
	}
}

// TestConcurrentReadersAndWriters exercises the goroutine-safety contract of
// owned instruments under -race: the HTTP exporter reads snapshots while
// writers hammer the instruments and the tracer. (Views are outside it: they
// are read on their components' goroutine or after the run.)
func TestConcurrentReadersAndWriters(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1024)
	sc := obs.New(reg, tr)
	h := obs.NewHTTPHandler(reg, tr, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Counter("liteflow_test_w_total", "")
			hi := sc.Histogram("liteflow_test_w_ns", "", obs.DurationBuckets())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				hi.Observe(float64(i))
				sc.Event1("w", "tick", int64(i), "w", int64(w))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/metrics", "/debug/trace", "/debug/trace?format=jsonl"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("%s returned %d", path, rec.Code)
			}
			io.Copy(io.Discard, rec.Body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEvictionCounterAndWarning: satellite contract — ring overflow is
// visible as liteflow_trace_evicted_total, and exports prepend a single
// synthetic warning event.
func TestEvictionCounterAndWarning(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(4)
	sc := obs.New(reg, tr)

	for i := 0; i < 10; i++ {
		sc.Event("c", "n", int64(i))
	}
	if tr.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", tr.Evicted())
	}
	if !strings.Contains(string(reg.PrometheusText()), "liteflow_trace_evicted_total 6") {
		t.Fatalf("eviction counter missing from exposition:\n%s", reg.PrometheusText())
	}

	var jb bytes.Buffer
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jb.String()), "\n")
	if len(lines) != 5 { // 4 retained + 1 synthetic warning
		t.Fatalf("got %d JSONL lines, want 5:\n%s", len(lines), jb.String())
	}
	if !strings.Contains(lines[0], "trace_ring_overflow") || !strings.Contains(lines[0], `"evicted":6`) {
		t.Fatalf("synthetic overflow warning missing or wrong: %s", lines[0])
	}
	var cb bytes.Buffer
	if err := tr.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(cb.Bytes()) || !strings.Contains(cb.String(), "trace_ring_overflow") {
		t.Fatalf("chrome trace missing overflow warning:\n%s", cb.String())
	}

	// Binding seeds pre-existing evictions: a scope created late still
	// reports the full count.
	reg2 := obs.NewRegistry()
	obs.New(reg2, tr)
	if !strings.Contains(string(reg2.PrometheusText()), "liteflow_trace_evicted_total 6") {
		t.Fatalf("late binding lost prior evictions:\n%s", reg2.PrometheusText())
	}
}

// TestHTTPEndpointsContentTypes: every obs endpoint declares its media type,
// /debug/trace honors ?format=jsonl, and /debug/flight serves the recording.
func TestHTTPEndpointsContentTypes(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	sc := obs.New(reg, tr)
	sc.Counter("liteflow_test_n_total", "").Inc()
	sc.Event("c", "n", 1)
	fr := obs.NewFlightRecorder(8)
	fr.Sample(reg, 100)
	h := obs.NewHTTPHandler(reg, tr, fr)

	cases := []struct {
		path, wantType, wantBody string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "liteflow_test_n_total 1"},
		{"/debug/trace", "application/json", `"traceEvents"`},
		{"/debug/trace?format=jsonl", "application/x-ndjson", `"name":"n"`},
		{"/debug/flight", "application/x-ndjson", `"series":"liteflow_test_n_total"`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s returned %d", c.path, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != c.wantType {
			t.Errorf("%s Content-Type = %q, want %q", c.path, got, c.wantType)
		}
		if !strings.Contains(rec.Body.String(), c.wantBody) {
			t.Errorf("%s body missing %q:\n%s", c.path, c.wantBody, rec.Body.String())
		}
	}

	// Without a recorder, /debug/flight 404s like the other nil halves.
	h2 := obs.NewHTTPHandler(reg, tr, nil)
	rec := httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/flight without recorder returned %d, want 404", rec.Code)
	}
}

func TestScopeLabels(t *testing.T) {
	if got := (obs.Scope{}).Labels(); len(got) != 0 {
		t.Errorf("no-op scope labels = %v, want none", got)
	}
	sc := obs.New(obs.NewRegistry(), nil).With(obs.Label{Key: "host", Value: "3"}, obs.Label{Key: "az", Value: "a"})
	got := sc.Labels()
	if len(got) != 2 || got[0] != (obs.Label{Key: "host", Value: "3"}) || got[1] != (obs.Label{Key: "az", Value: "a"}) {
		t.Fatalf("Labels = %v", got)
	}
	got[0].Value = "mutated"
	if sc.Labels()[0].Value != "3" {
		t.Error("Labels must return a copy, not the backing slice")
	}
}
