package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

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
// a pass under live telemetry, the exports. Scale 0.02 keeps several
// full-suite passes tractable in CI while still executing every experiment's
// complete code path.
type suiteRun struct {
	results     []SuiteResult
	prom, trace []byte
}

func goldenSuite(parallel int, live bool) suiteRun {
	var reg *obs.Registry
	var tr *obs.Tracer
	if live {
		reg, tr = obs.NewRegistry(), obs.NewTracer(0)
	}
	cfg := Config{Scale: 0.02, Seed: 3, Obs: obs.New(reg, tr)} // neither is obs.Nop()
	run := suiteRun{results: RunSuite(All(), cfg, SuiteOptions{Parallel: parallel})}
	if live {
		var tb bytes.Buffer
		tr.WriteChromeTrace(&tb)
		run.prom, run.trace = reg.PrometheusText(), tb.Bytes()
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
// byte-identical telemetry exports (Prometheus text + Chrome trace) to the
// serial run.
func TestGoldenSuiteSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden run is slow; skipped with -short")
	}
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
	if len(serialRep) == 0 || len(serial.prom) == 0 || len(serial.trace) == 0 {
		t.Fatal("empty suite output; golden comparison is vacuous")
	}
	const golden = "testdata/suite_scale0.02_seed3"
	checkGolden(t, golden+".report.golden", []byte(serialRep))
	checkGolden(t, golden+".prom.golden", serial.prom)
	checkGolden(t, golden+".trace.golden", serial.trace)

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
}

// TestTelemetryIsPassive: attaching a registry and a tracer changes no
// report. Every registered experiment renders the same Result under obs.Nop()
// as in the reference pass under live telemetry — which holds only if every
// rig a figure builds counts into instruments of its own (obs.Fork), since
// each component's Stats() reads the instruments it was handed.
func TestTelemetryIsPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run is slow; skipped with -short")
	}
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

// TestEngineSerialVsParallelByteIdentical pins the bytes of the windowed
// engine (DESIGN.md §4h), which the suite goldens above do not: they run on
// the classic engine, whose tie-break differs. Every Partitioned experiment
// runs once with Domains 1 and must reproduce its line of the golden file — a
// digest each of its report, its Prometheus text and its trace JSONL. The
// number behind -sim-domains selects nothing beyond the engine family, so one
// value covers them all. The other experiments never see an engine built from
// Config.Domains; their subtests only check that the golden file holds no line
// for them, so an experiment that gains or loses Partitioned must be re-pinned.
func TestEngineSerialVsParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("windowed golden run is slow; skipped with -short")
	}
	const golden = "testdata/windowed_scale0.02_seed3.golden"
	pinned := map[string]string{} // experiment ID → its committed line
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			id, _, _ := strings.Cut(line, " ")
			pinned[id] = line
		}
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	lines := make([]string, len(All())) // by registry position; "" = not Partitioned
	partitioned := 0
	for i, r := range All() {
		i, r := i, r
		if r.Partitioned {
			partitioned++
		}
		t.Run(r.ID, func(t *testing.T) {
			want, ok := pinned[r.ID]
			if !*update && ok != r.Partitioned {
				t.Fatalf("%s holds a line for %s = %v, Partitioned = %v", golden, r.ID, ok, r.Partitioned)
			}
			if !r.Partitioned {
				return
			}
			t.Parallel() // every run builds a private engine, registry and tracer
			reg := obs.NewRegistry()
			tr := obs.NewTracer(0)
			rep := r.Run(Config{Scale: 0.02, Seed: 3, Obs: obs.New(reg, tr), Domains: 1}).String()
			var tb bytes.Buffer
			if err := tr.WriteJSONL(&tb); err != nil {
				t.Fatal(err)
			}
			if rep == "" {
				t.Fatal("empty report; golden comparison is vacuous")
			}
			lines[i] = fmt.Sprintf("%s report=%016x prom=%016x trace=%016x",
				r.ID, digest([]byte(rep)), digest(reg.PrometheusText()), digest(tb.Bytes()))
			if !*update && runtime.GOARCH == "amd64" && lines[i] != want {
				t.Errorf("windowed output moved (-update regenerates after an intended change):\n got %s\nwant %s", lines[i], want)
			}
		})
	}
	if partitioned == 0 {
		t.Error("no experiment is Partitioned; the windowed goldens pin nothing")
	}
	if *update {
		t.Cleanup(func() { // after the parallel subtests
			var b strings.Builder
			for _, line := range lines {
				if line != "" {
					b.WriteString(line + "\n")
				}
			}
			if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
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
