package experiments

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestDeterminism asserts bit-exact reproducibility: the whole stack —
// PRNGs, event ordering, training, quantization — is deterministic for a
// fixed seed (DESIGN.md §4). fig7 exercises training + quantization; fig15
// exercises the simulator's event loop and cost model.
func TestDeterminism(t *testing.T) {
	for _, id := range []string{"fig7", "fig15", "abl-taylor"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatal(id)
		}
		cfg := Config{Scale: 0.2, Seed: 7}
		a := r.Run(cfg)
		b := r.Run(cfg)
		if a.String() != b.String() {
			t.Errorf("%s is not deterministic for a fixed seed", id)
		}
	}
}

// TestTelemetryDeterminism asserts that telemetry itself is reproducible:
// two same-seed adaptation runs must export byte-identical Chrome traces and
// Prometheus text. Virtual-time stamps, sorted export orders and the
// deterministic ring eviction make this possible.
func TestTelemetryDeterminism(t *testing.T) {
	export := func() (trace, prom []byte) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(1 << 14)
		cfg := Config{Scale: 0.2, Seed: 7, Obs: obs.New(reg, tr)}
		runAdaptation(cfg, adaptVariant{name: "lf", adapt: true},
			20*netsim.Millisecond, 200*netsim.Millisecond, 0, 1)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), reg.PrometheusText()
	}
	t1, p1 := export()
	t2, p2 := export()
	if len(t1) == 0 || len(p1) == 0 {
		t.Fatal("empty telemetry export")
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("Chrome traces differ between same-seed runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("Prometheus exports differ between same-seed runs:\n--- run1\n%s\n--- run2\n%s", p1, p2)
	}
}

// TestFaultTelemetryDeterminism mirrors TestTelemetryDeterminism for faulted
// runs: the injector derives every decision from the seed, so two same-seed
// chaos runs must export byte-identical Chrome traces and Prometheus text.
func TestFaultTelemetryDeterminism(t *testing.T) {
	export := func() (trace, prom []byte) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(1 << 14)
		cfg := Config{Scale: 0.2, Seed: 7, Obs: obs.New(reg, tr)}
		prof := fault.Chaos()
		runAdaptation(cfg, adaptVariant{
			name: "chaos", adapt: true,
			faults:   prof,
			wdWindow: 60 * netsim.Millisecond,
		}, 20*netsim.Millisecond, 400*netsim.Millisecond, 0, 1)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), reg.PrometheusText()
	}
	t1, p1 := export()
	t2, p2 := export()
	if len(t1) == 0 || len(p1) == 0 {
		t.Fatal("empty telemetry export")
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("Chrome traces differ between same-seed faulted runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("Prometheus exports differ between same-seed faulted runs:\n--- run1\n%s\n--- run2\n%s", p1, p2)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares got against the committed golden file, or rewrites the
// file under -update. The goldens pin output bytes across commits, where the
// suites below only compare a run with itself. They are amd64 bytes: on other
// architectures the compiler may fuse multiply-adds, which changes float
// results in the last place.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("skipping %s: goldens hold amd64 float bytes", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run (-update regenerates after an intended change)", path)
		diffFirstLine(t, string(want), string(got))
	}
}

// suiteRun is one pass of every registered experiment at the golden
// configuration, scale 0.02 and seed 3: the results in registry order and, for
// a pass under live telemetry and a flight recorder, the exports. Scale 0.02
// keeps several full-suite passes tractable in CI while still executing every
// experiment's complete code path.
type suiteRun struct {
	results             []SuiteResult
	prom, trace, flight []byte
}

func goldenSuite(parallel int, live bool) suiteRun {
	var reg *obs.Registry
	var tr *obs.Tracer
	cfg := Config{Scale: 0.02, Seed: 3}
	if live {
		reg, tr, cfg.Flight = obs.NewRegistry(), obs.NewTracer(0), obs.NewFlightRecorder(0)
	}
	cfg.Obs = obs.New(reg, tr) // neither is obs.Scope{}
	run := suiteRun{results: RunSuite(All(), cfg, parallel)}
	if live {
		var tb, fb bytes.Buffer
		tr.WriteChromeTrace(&tb)
		cfg.Flight.WriteJSONL(&fb)
		run.prom, run.trace, run.flight = reg.PrometheusText(), tb.Bytes(), fb.Bytes()
	}
	return run
}

func (s suiteRun) report() string {
	var b strings.Builder
	for _, sr := range s.results {
		b.WriteString(sr.Result.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// referenceSuite is the serial pass under a live registry and tracer, made
// once for every suite-wide test that reads it.
var referenceSuite = sync.OnceValue(func() suiteRun { return goldenSuite(1, true) })

// TestGoldenSuiteSerialVsParallel is the determinism invariant of DESIGN.md
// §4d, enforced over EVERY registered experiment: the full suite run through
// the harness with -parallel 4 must produce byte-identical reports AND
// byte-identical telemetry exports (Prometheus text, Chrome trace and the
// flight recording fleet-scale and fleet-canary drive) to the serial run —
// the per-job telemetry children are joined in job order, not completion
// order.
func TestGoldenSuiteSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden run is slow; skipped with -short")
	}
	t.Parallel()
	serial, par := referenceSuite(), goldenSuite(4, true)
	// The suite must include the flow-churn experiment (#20) — its cache
	// map and timing-wheel sweeper are exactly the structures whose
	// iteration order could silently go nondeterministic — and the
	// fleet-scale experiment (#21), whose index-ordered batch merge and
	// bounded install queue are the distribution plane's §4d obligations.
	covered := map[string]bool{}
	for _, sr := range serial.results {
		covered[sr.Result.ID] = true
	}
	for _, id := range []string{"flow-churn", "fleet-scale"} {
		if !covered[id] {
			t.Fatalf("suite run did not execute %s; golden coverage would silently shrink", id)
		}
	}
	serialRep, parRep := serial.report(), par.report()
	if len(serialRep) == 0 || len(serial.prom) == 0 || len(serial.trace) == 0 || len(serial.flight) == 0 {
		t.Fatal("empty suite output; golden comparison is vacuous")
	}
	const golden = "testdata/suite_scale0.02_seed3"
	checkGolden(t, golden+".report.golden", []byte(serialRep))
	checkGolden(t, golden+".prom.golden", serial.prom)
	checkGolden(t, golden+".trace.golden", serial.trace)
	// The suite overflows its tracer, and /metrics must count every eviction
	// the trace export reports in-band.
	count := func(re string, b []byte) string {
		if m := regexp.MustCompile(re).FindSubmatch(b); m != nil {
			return string(m[1])
		}
		return "none"
	}
	promEvicted := count(`(?m)^liteflow_trace_evicted_total (\d+)$`, serial.prom)
	traceEvicted := count(`"name":"trace_ring_overflow"[^}]*"args":\{"evicted":(\d+)\}`, serial.trace)
	if promEvicted != traceEvicted || promEvicted == "none" {
		t.Errorf("liteflow_trace_evicted_total is %s, the trace's trace_ring_overflow says %s evicted", promEvicted, traceEvicted)
	}

	if serialRep != parRep {
		t.Errorf("suite report differs between serial and -parallel 4 runs")
		diffFirstLine(t, serialRep, parRep)
	}
	if !bytes.Equal(serial.prom, par.prom) {
		t.Errorf("Prometheus export differs between serial and -parallel 4 runs")
		diffFirstLine(t, string(serial.prom), string(par.prom))
	}
	if !bytes.Equal(serial.trace, par.trace) {
		t.Errorf("Chrome trace differs between serial and -parallel 4 runs (%d vs %d bytes)",
			len(serial.trace), len(par.trace))
	}
	if !bytes.Equal(serial.flight, par.flight) {
		t.Errorf("flight recording differs between serial and -parallel 4 runs (%d vs %d bytes)",
			len(serial.flight), len(par.flight))
	}
}

// TestTelemetryIsPassive: attaching a registry and a tracer changes no
// report. Every registered experiment renders the same Result under obs.Scope{}
// as in the reference pass under live telemetry — which holds only if every
// rig a figure builds counts into instruments of its own (obs.Fork), since
// each component's Stats() reads the instruments it was handed.
func TestTelemetryIsPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run is slow; skipped with -short")
	}
	t.Parallel()
	live, nop := referenceSuite(), goldenSuite(4, false)
	if len(live.results) != len(All()) || len(nop.results) != len(All()) {
		t.Fatalf("suite ran %d live and %d no-op experiments, registry has %d",
			len(live.results), len(nop.results), len(All()))
	}
	for i, sr := range live.results {
		if with, without := sr.Result.String(), nop.results[i].Result.String(); with != without {
			t.Errorf("%s reports differently with telemetry attached", sr.Runner.ID)
			diffFirstLine(t, without, with)
		}
	}
}

// diffFirstLine logs the first differing line of two texts, so a golden
// failure names the drifting experiment or metric instead of dumping both
// multi-thousand-line documents.
func diffFirstLine(t *testing.T, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Logf("first difference at line %d:\n  serial:   %q\n  parallel: %q", i+1, al[i], bl[i])
			return
		}
	}
	t.Logf("outputs differ in length: %d vs %d lines", len(al), len(bl))
}

// TestSeedSensitivity: different seeds must actually change stochastic
// experiments (guarding against accidentally ignoring the seed).
func TestSeedSensitivity(t *testing.T) {
	r, _ := ByID("fig7")
	a := r.Run(Config{Scale: 0.2, Seed: 1})
	b := r.Run(Config{Scale: 0.2, Seed: 2})
	if a.String() == b.String() {
		t.Error("fig7 ignores the seed")
	}
}
