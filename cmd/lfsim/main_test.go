package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// smokeOpts is a short congested lf-aurora run with the full slow path, sized
// so the whole test finishes in a couple of seconds.
func smokeOpts(dir string) options {
	return options{
		scheme:    "lf-aurora",
		flows:     1,
		duration:  100 * time.Millisecond,
		warmup:    50 * time.Millisecond,
		interval:  10 * time.Millisecond,
		congested: true,
		adapt:     true,
		batchT:    20 * time.Millisecond,
		pretrain:  40,

		ex: obs.Exports{
			Trace:      filepath.Join(dir, "trace.json"),
			TraceJSONL: filepath.Join(dir, "trace.jsonl"),
			Metrics:    filepath.Join(dir, "metrics.prom"),
		},
	}
}

func TestLfsimSmoke(t *testing.T) {
	dir := t.TempDir()
	o := smokeOpts(dir)
	var stdout, stderr bytes.Buffer
	if err := run(o, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	report := stdout.String()
	for _, want := range []string{"aggregate:", "sender CPU:", "liteflow core:", "liteflow service:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	raw, err := os.ReadFile(o.ex.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("trace is not valid JSON (%d bytes)", len(raw))
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := map[string]bool{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
		names[e.Cat+"/"+e.Name] = true
	}
	for _, cat := range []string{"snapshot", "flowcache", "netlink", "cpu"} {
		if !cats[cat] {
			t.Errorf("trace missing category %q (have %v)", cat, cats)
		}
	}
	if !names["snapshot/install"] {
		t.Error("trace missing snapshot/install event")
	}
	if !names["netlink/flush"] {
		t.Error("trace missing netlink/flush event")
	}

	jl, err := os.ReadFile(o.ex.TraceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(jl), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace.jsonl line %d is not valid JSON: %s", i+1, line)
		}
	}

	prom, err := os.ReadFile(o.ex.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE liteflow_core_queries_total counter",
		"# TYPE liteflow_cpu_busy_ns_total counter",
		"# TYPE liteflow_netlink_flushes_total counter",
		"# TYPE liteflow_core_stall_ns histogram",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// repsOpts is a short lf-aurora run without the slow path, repeated 3 times:
// each rep pretrains at seed+rep, so the reps genuinely differ and the
// median/p95 summary aggregates distinct values.
func repsOpts(parallel int) options {
	return options{
		scheme:    "lf-aurora",
		flows:     1,
		duration:  100 * time.Millisecond,
		warmup:    50 * time.Millisecond,
		interval:  10 * time.Millisecond,
		congested: true,
		pretrain:  40,
		seed:      2,
		reps:      3,
		parallel:  parallel,
	}
}

// TestLfsimRepsParallelMatchesSerial: the multi-rep harness must print the
// same bytes whether reps run on one worker or several — per-rep sections in
// rep order plus the aggregate summary.
func TestLfsimRepsParallelMatchesSerial(t *testing.T) {
	runReps := func(parallel int) string {
		var stdout, stderr bytes.Buffer
		if err := run(repsOpts(parallel), &stdout, &stderr); err != nil {
			t.Fatalf("run -parallel %d: %v\nstderr: %s", parallel, err, stderr.String())
		}
		return stdout.String()
	}
	serial := runReps(1)
	parallel := runReps(3)
	if serial != parallel {
		t.Errorf("stdout differs between -parallel 1 and -parallel 3:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
	for rep := 0; rep < 3; rep++ {
		header := "--- rep " + strconv.Itoa(rep) + " (seed " + strconv.Itoa(2+rep) + ") ---"
		if !strings.Contains(serial, header) {
			t.Errorf("report missing %q", header)
		}
	}
	if !strings.Contains(serial, "reps summary: aggregate goodput median") ||
		!strings.Contains(serial, "over 3 reps (seeds 2..4)") {
		t.Errorf("report missing reps summary:\n%s", serial)
	}
}

// TestLfsimRepsRejectTelemetryExports: the export flags describe one run's
// telemetry; combining them with -reps must fail loudly instead of silently
// writing one arbitrary rep.
func TestLfsimRepsRejectTelemetryExports(t *testing.T) {
	o := repsOpts(1)
	o.ex.Trace = filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	err := run(o, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-reps 1") {
		t.Fatalf("expected export/reps conflict error, got %v", err)
	}
}

// TestLfsimDeterminism runs the same configuration twice and requires
// byte-identical telemetry exports — the reproducibility contract for
// simulated-time tracing.
func TestLfsimDeterminism(t *testing.T) {
	read := func(dir string) (trace, jsonl, prom []byte) {
		o := smokeOpts(dir)
		var stdout, stderr bytes.Buffer
		if err := run(o, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
		for _, p := range []struct {
			path string
			dst  *[]byte
		}{{o.ex.Trace, &trace}, {o.ex.TraceJSONL, &jsonl}, {o.ex.Metrics, &prom}} {
			b, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatal(err)
			}
			*p.dst = b
		}
		return
	}
	t1, j1, p1 := read(t.TempDir())
	t2, j2, p2 := read(t.TempDir())
	if !bytes.Equal(t1, t2) {
		t.Errorf("Chrome traces differ between same-seed runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSONL traces differ between same-seed runs (%d vs %d bytes)", len(j1), len(j2))
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("Prometheus exports differ between same-seed runs:\n--- run1\n%s\n--- run2\n%s", p1, p2)
	}
}

// TestLfsimFleetSmoke runs the -fleet scenario in chaos mode with telemetry
// exports and checks the report, the fleet metric families, and run-to-run
// byte-identical exports (the determinism contract extends to the
// distribution plane).
func TestLfsimFleetSmoke(t *testing.T) {
	runFleetOnce := func(dir string) (report string, prom, trace []byte) {
		o := options{
			fleet:        4,
			duration:     400 * time.Millisecond,
			seed:         3,
			faultProfile: "chaos",
			ex: obs.Exports{
				Trace:   filepath.Join(dir, "trace.json"),
				Metrics: filepath.Join(dir, "metrics.prom"),
			},
		}
		var stdout, stderr bytes.Buffer
		if err := run(o, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
		p, err := os.ReadFile(o.ex.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(o.ex.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String(), p, tr
	}

	r1, p1, t1 := runFleetOnce(t.TempDir())
	for _, want := range []string{"fleet: 4 members", "fleet slow path:", "fleet staleness:", "queries/s across 4 members"} {
		if !strings.Contains(r1, want) {
			t.Errorf("report missing %q:\n%s", want, r1)
		}
	}
	for _, want := range []string{
		"# TYPE liteflow_fleet_member_installs_total counter",
		"# TYPE liteflow_fleet_stale_members gauge",
		"liteflow_fleet_member_epoch{",
		"liteflow_fleet_outage_drops_total",
	} {
		if !strings.Contains(string(p1), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !json.Valid(t1) {
		t.Fatalf("trace is not valid JSON (%d bytes)", len(t1))
	}

	r2, p2, t2 := runFleetOnce(t.TempDir())
	if r1 != r2 {
		t.Errorf("fleet reports differ between same-seed runs:\n--- run1\n%s\n--- run2\n%s", r1, r2)
	}
	if !bytes.Equal(p1, p2) {
		t.Error("fleet Prometheus exports differ between same-seed runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("fleet Chrome traces differ between same-seed runs (%d vs %d bytes)", len(t1), len(t2))
	}
}

// TestLfsimScenarioCLI covers the -scenario surface: corpus listing, a
// checked run from the embedded corpus, loading a spec from a JSON file, the
// envelope exit path, and the unknown-name error.
func TestLfsimScenarioCLI(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(options{scenarioList: true}, &stdout, io.Discard); err != nil {
		t.Fatalf("scenario-list: %v", err)
	}
	for _, want := range []string{"web-baseline", "rpc-incast", "mega-web-1m"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-scenario-list output missing %q:\n%s", want, stdout.String())
		}
	}

	stdout.Reset()
	o := options{scenario: "rpc-incast", scenarioCheck: true, scenarioScale: 1}
	if err := run(o, &stdout, io.Discard); err != nil {
		t.Fatalf("scenario rpc-incast: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "envelope: OK") {
		t.Errorf("checked run did not report envelope OK:\n%s", stdout.String())
	}

	// A file-backed spec with an impossible envelope must trip -scenario-check.
	spec := `{
		"name": "impossible",
		"description": "file-backed spec for the CLI test",
		"fabric": {"profile": "dc", "hostsPerLeaf": 2},
		"durationMs": 20,
		"seed": 5,
		"actors": [{"class": "web", "count": 2, "thinkMs": 2}],
		"arrival": {"process": "uniform", "rampMs": 5},
		"envelope": {"minResponses": 1000000}
	}`
	path := filepath.Join(t.TempDir(), "impossible.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	err := run(options{scenario: path, scenarioCheck: true, scenarioScale: 1}, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "envelope violated") {
		t.Errorf("impossible envelope: err = %v, want envelope violation", err)
	}
	// Without -scenario-check the same run succeeds but reports violations.
	stdout.Reset()
	if err := run(options{scenario: path, scenarioScale: 1}, &stdout, io.Discard); err != nil {
		t.Fatalf("unchecked run: %v", err)
	}
	if !strings.Contains(stdout.String(), "envelope: 1 violations") {
		t.Errorf("unchecked run did not print violations:\n%s", stdout.String())
	}

	if err := run(options{scenario: "no-such-scenario", scenarioScale: 1}, &stdout, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown name: err = %v, want unknown-scenario error", err)
	}
	if err := run(options{scenario: "web-baseline", scenarioCheck: true, scenarioScale: 0.5}, &stdout, io.Discard); err == nil {
		t.Error("scenario-check at scale 0.5 should be rejected")
	}

	// Flags the scenario runner cannot honor (it has no telemetry scope, no
	// injector, no reps), -with flags missing their base flag and values no
	// run can use must be rejected by name, not silently ignored.
	out := filepath.Join(t.TempDir(), "out")
	sc := options{scenario: "rpc-incast", scenarioScale: 1}
	for _, c := range []struct {
		flag string
		o    options
	}{
		{"-trace", func() options { o := sc; o.ex.Trace = out; return o }()},
		{"-trace-jsonl", func() options { o := sc; o.ex.TraceJSONL = out; return o }()},
		{"-metrics-out", func() options { o := sc; o.ex.Metrics = out; return o }()},
		{"-flight-out", func() options { o := sc; o.ex.Flight = out; return o }()},
		{"-listen", func() options { o := sc; o.ex.Listen = "127.0.0.1:0"; return o }()},
		{"-reps", func() options { o := sc; o.reps = 3; return o }()},
		{"-fault-profile", func() options { o := sc; o.faultProfile = "chaos"; return o }()},
		{"-fleet", func() options { o := sc; o.fleet, o.canary = 4, 1; return o }()},
		{"-scenario-check", options{scheme: "bbr", flows: 1, scenarioCheck: true}},
		{"-fleet-scenario", options{scheme: "bbr", flows: 1, fleetScenario: "web-diurnal"}},
		{"-canary-window", options{fleet: 4, duration: 10 * time.Millisecond, canaryWin: time.Millisecond}},
		{"-duration", options{scheme: "bbr", flows: 1, warmup: time.Millisecond}},
		{"-duration", options{fleet: 2}},
		{"-warmup", options{scheme: "bbr", flows: 1, duration: time.Millisecond, warmup: -time.Millisecond}},
		{"-flows", options{scheme: "bbr", duration: time.Millisecond}},
		// Unknown names and a negative scale are refused before any output,
		// not by the first rep once its header is printed.
		{"-cc", options{scheme: "nope", flows: 1, duration: time.Millisecond, reps: 2}},
		{"-adapt", options{scheme: "bbr", flows: 1, duration: time.Millisecond, adapt: true, reps: 2}},
		{"-fault-profile", options{scheme: "bbr", flows: 1, duration: time.Millisecond, faultProfile: "nope", reps: 2}},
		{"-fault-profile", options{fleet: 4, duration: time.Millisecond, faultProfile: "nope"}},
		{"-scenario-scale", options{scenario: "rpc-incast", scenarioScale: -1}},
	} {
		stdout.Reset()
		err := run(c.o, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%s: err = %v, want a rejection naming the flag", c.flag, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: rejected run still printed a report:\n%s", c.flag, stdout.String())
		}
	}
}
