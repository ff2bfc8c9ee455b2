package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s emitted and listed in BENCHMARK.json differ:\n emitted %v\n listed  %v", what, got, want)
	}
}

// TestQuickRunMatchesBenchmarkFile runs every workload, untraced and traced,
// at -quick sizes and holds what is emitted to BENCHMARK.json: names cannot
// drift.
func TestQuickRunMatchesBenchmarkFile(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("spineleaf-actors-d2 refuses to run on one core")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	dir := t.TempDir()
	outPath, tracePath := filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-quick", "-reps", "1", "-seed", "7",
		"-out", outPath, "-trace-out", tracePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	rep, err := readReport(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 7 || rep.Host.NProc < 1 || rep.Host.GoVersion == "" || rep.Host.GOMAXPROCS < 1 {
		t.Errorf("seed or host metadata missing: seed %d, host %+v", rep.Seed, rep.Host)
	}

	var workloadNames, listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	for _, r := range rep.Workloads {
		workloadNames = append(workloadNames, r.Name)
		if r.Failed != 0 || r.EndToEnd["failed_frac"].Value != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", r.Name, r.Failed, r.Attempted, r.FailedChecks)
		}
		if r.SimDigest == "" {
			t.Errorf("%s: no sim_digest", r.Name)
		}

		// The native output carries nine end-to-end metrics: the contract's,
		// failed_frac, and on query-mix the three latency ones.
		for name, m := range r.EndToEnd {
			if !nameRE.MatchString(name) || m.Unit == "" {
				t.Errorf("%s: bad end-to-end metric %q (unit %q)", r.Name, name, m.Unit)
			}
		}
		_, hasHit := r.EndToEnd["query_hit_ns_p50"]
		if want := r.Name == "query-mix"; hasHit != want {
			t.Errorf("%s: query_hit_ns_p50 present = %v, want %v", r.Name, hasHit, want)
		}

		for _, traced := range []bool{false, true} {
			line, err := resultLine(r, traced)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: result line: %v\n%s", r.Name, err, line)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s: result line verdict wrong: %s", r.Name, line)
			}
			var got, want []string
			units := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want, units[m.Name] = append(want, m.Name), m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want, units[m.Name] = append(want, m.Name), m.Unit
				}
			}
			for name, m := range res.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", r.Name, name)
				}
				if m.Value == nil || m.Unit != units[name] {
					t.Errorf("%s: %s: value %v, unit %q, BENCHMARK.json says %q", r.Name, name, m.Value, m.Unit, units[name])
				}
				if !traced && m.Value != nil && *m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", r.Name, name)
				}
			}
			sameSet(t, r.Name+": metrics (traced="+map[bool]string{false: "0", true: "1"}[traced]+")", got, want)
		}
	}
	sameSet(t, "workloads", workloadNames, listed)

	// The bounds in BENCHMARK.json are the ones -compare applies.
	for _, m := range bf.EndToEnd {
		for _, d := range e2eDefs {
			if d.name != m.Name {
				continue
			}
			better := map[bool]string{true: "lower", false: "higher"}[d.lower]
			if d.bound != m.Bound || better != m.Better {
				t.Errorf("%s: bench has bound %g better %s, BENCHMARK.json has %g %s", m.Name, d.bound, better, m.Bound, m.Better)
			}
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file: %v, %d events", err, len(trace.TraceEvents))
	}
}

// TestTracerSelfTime checks the self-time rule on a hand-made nest: a
// recorded span with a recorded child and sampled per-packet calls.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.startRep(0)
	tr.begin(spSlice, false)
	tr.begin(spQuery, false)
	tr.end()
	for i := 0; i < 4*aggSample; i++ {
		tr.begin(spHostRx, true)
		tr.end()
	}
	tr.beginOpen(spBuild)
	tr.end() // closes the open span, then the slice
	tr.stopRep()

	slice, query, rx, build := tr.total(spSlice), tr.total(spQuery), tr.total(spHostRx), tr.total(spBuild)
	if slice.n != 1 || query.n != 1 || build.n != 1 || rx.n != 4*aggSample {
		t.Fatalf("counts: slice %d query %d build %d rx %d", slice.n, query.n, build.n, rx.n)
	}
	if got := slice.incl - query.incl - rx.incl - build.incl; got != slice.self {
		t.Errorf("slice self %d, want incl − children = %d", slice.self, got)
	}
	// In the file: the slice, its two recorded children and one aggregate.
	var sum int64
	for _, s := range tr.spans {
		if s.parent == 0 {
			sum += s.end - s.start
		}
	}
	if root := tr.spans[0]; root.end-root.start-sum != slice.self {
		t.Errorf("trace file: slice − children = %d, self = %d", root.end-root.start-sum, slice.self)
	}
	if len(tr.stack) != 0 || len(tr.subs) != 0 {
		t.Errorf("tracer left %d frames open", len(tr.stack))
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Q1: lo, Q3: hi, Max: hi, N: 5} }
	perS := e2eDefs[1]
	setup := e2eDefs[0]
	if perS.name != "units_per_s" || setup.name != "setup_s" {
		t.Fatal("e2eDefs order changed")
	}
	for _, c := range []struct {
		name string
		d    e2eDef
		a, b metric
		want string
	}{
		{"same", perS, m(100, 98, 102), m(99, 97, 101), "ok"},
		{"slower beyond the bound", perS, m(100, 98, 102), m(70, 69, 72), "worse"},
		{"faster", perS, m(100, 98, 102), m(130, 125, 135), "ok"},
		{"too noisy to tell", perS, m(100, 80, 120), m(97, 85, 110), "unresolved"},
		{"noisy, yet every rep slower", perS, m(100, 90, 115), m(60, 50, 70), "worse"},
		{"slower set-up inside the absolute floor", setup, m(0.01, 0.01, 0.01), m(0.05, 0.05, 0.05), "ok"},
		{"slower set-up", setup, m(1, 0.99, 1.01), m(1.5, 1.49, 1.51), "worse"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	rep := func(v float64) *report {
		return &report{Seed: 1, Workloads: []*workloadResult{{Name: "w", SimDigest: "d",
			EndToEnd: map[string]metric{"units_per_s": m(v, v, v)}}}}
	}
	var out bytes.Buffer
	if code := compareReports(rep(100), rep(101), "A", &out); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	if code := compareReports(rep(100), rep(50), "A", &out); code != 1 {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
}
