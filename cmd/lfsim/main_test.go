package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lfsim runs one command line and returns its exit code, stdout and stderr.
func lfsim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// smokeArgs is a short congested lf-aurora run with the full slow path, sized
// so the whole test finishes in a couple of seconds.
func smokeArgs(dir string) []string {
	return []string{"cc", "-cc", "lf-aurora", "-flows", "1",
		"-duration", "100ms", "-warmup", "50ms", "-interval", "10ms",
		"-congested", "-adapt", "-batch-interval", "20ms", "-pretrain", "40", "-seed", "0",
		"-trace", filepath.Join(dir, "trace.json"),
		"-trace-jsonl", filepath.Join(dir, "trace.jsonl"),
		"-metrics-out", filepath.Join(dir, "metrics.prom")}
}

func TestLfsimSmoke(t *testing.T) {
	dir := t.TempDir()
	code, report, stderr := lfsim(smokeArgs(dir)...)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}

	for _, want := range []string{"aggregate:", "sender CPU:", "liteflow core:", "liteflow service:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
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

	jl, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(jl), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace.jsonl line %d is not valid JSON: %s", i+1, line)
		}
	}

	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
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

// repsArgs is a short lf-aurora run without the slow path, repeated 3 times:
// each rep pretrains at seed+rep, so the reps genuinely differ and the
// median/p95 summary aggregates distinct values.
func repsArgs(parallel int, extra ...string) []string {
	return append([]string{"cc", "-cc", "lf-aurora", "-flows", "1",
		"-duration", "100ms", "-warmup", "50ms", "-interval", "10ms",
		"-congested", "-pretrain", "40", "-seed", "2",
		"-reps", "3", "-parallel", strconv.Itoa(parallel)}, extra...)
}

// TestLfsimRepsParallelMatchesSerial: the multi-rep harness must print the
// same bytes whether reps run on one worker or several — per-rep sections in
// rep order plus the aggregate summary.
func TestLfsimRepsParallelMatchesSerial(t *testing.T) {
	runReps := func(parallel int) string {
		code, stdout, stderr := lfsim(repsArgs(parallel)...)
		if code != 0 {
			t.Fatalf("-parallel %d: exit %d\nstderr: %s", parallel, code, stderr)
		}
		return stdout
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
	code, stdout, stderr := lfsim(repsArgs(1, "-trace", filepath.Join(t.TempDir(), "trace.json"))...)
	if code != 1 || !strings.Contains(stderr, "-reps 1") {
		t.Fatalf("exit %d, stderr %q: want exit 1 and an export/reps conflict error", code, stderr)
	}
	if stdout != "" {
		t.Errorf("rejected run still printed a report:\n%s", stdout)
	}
}

// TestLfsimDeterminism runs the same configuration twice and requires
// byte-identical telemetry exports — the reproducibility contract for
// simulated-time tracing.
func TestLfsimDeterminism(t *testing.T) {
	read := func(dir string) (trace, jsonl, prom []byte) {
		if code, _, stderr := lfsim(smokeArgs(dir)...); code != 0 {
			t.Fatalf("exit %d\nstderr: %s", code, stderr)
		}
		for _, p := range []struct {
			name string
			dst  *[]byte
		}{{"trace.json", &trace}, {"trace.jsonl", &jsonl}, {"metrics.prom", &prom}} {
			b, err := os.ReadFile(filepath.Join(dir, p.name))
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

// TestLfsimSingleClassFaultProfiles: -fault-profile netlink and slowpath each
// fire their own fault classes from the CLI and none of the other profile's.
// slowpath's build failures cannot fire here: lfsim's slow-path user never
// retunes the model, so the necessity gate never lets an install start, and
// the row pins them at 0.
func TestLfsimSingleClassFaultProfiles(t *testing.T) {
	for _, c := range []struct {
		profile, duration string
		fires, silent     []string
	}{
		{"netlink", "1s", []string{"drops", "corrupt", "delays", "reorders"}, []string{"build fails", "outages", "cpu spikes"}},
		{"slowpath", "2500ms", []string{"outages"}, []string{"build fails", "drops", "corrupt", "delays", "reorders", "cpu spikes"}},
	} {
		code, stdout, stderr := lfsim("cc", "-cc", "lf-aurora", "-adapt", "-fault-profile", c.profile,
			"-duration", c.duration, "-warmup", "0s", "-pretrain", "40", "-batch-interval", "20ms")
		if code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", c.profile, code, stderr)
		}
		_, line, ok := strings.Cut(stdout, "faults injected: ")
		line, _, _ = strings.Cut(line, "\n")
		_, classes, ok2 := strings.Cut(strings.TrimSuffix(line, ")"), "(")
		if !ok || !ok2 {
			t.Fatalf("%s: no faults injected line:\n%s", c.profile, stdout)
		}
		count := map[string]int{}
		for _, f := range strings.Split(classes, ", ") {
			n, name, _ := strings.Cut(f, " ")
			count[name], _ = strconv.Atoi(n)
		}
		for _, name := range c.fires {
			if count[name] == 0 {
				t.Errorf("%s: no %s injected: %s", c.profile, name, line)
			}
		}
		for _, name := range c.silent {
			if n, ok := count[name]; !ok || n != 0 {
				t.Errorf("%s: %s is not 0: %s", c.profile, name, line)
			}
		}
	}
}

// TestLfsimFleetSmoke runs lfsim fleet with -chaos and telemetry exports and
// checks the report, the fleet metric families, and run-to-run
// byte-identical exports (the determinism contract extends to the
// distribution plane).
func TestLfsimFleetSmoke(t *testing.T) {
	runFleetOnce := func(dir string) (report string, prom, trace []byte) {
		code, stdout, stderr := lfsim("fleet", "-members", "4", "-duration", "400ms", "-seed", "3", "-chaos",
			"-trace", filepath.Join(dir, "trace.json"), "-metrics-out", filepath.Join(dir, "metrics.prom"))
		if code != 0 {
			t.Fatalf("exit %d\nstderr: %s", code, stderr)
		}
		p, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		return stdout, p, tr
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

// TestLfsimScenarioCLI covers lfsim scenario: corpus listing, a checked run
// from the embedded corpus, loading a spec from a JSON file, the envelope
// exit path, and the unknown-name error.
func TestLfsimScenarioCLI(t *testing.T) {
	code, stdout, _ := lfsim("scenario")
	if code != 0 {
		t.Fatalf("listing: exit %d", code)
	}
	for _, want := range []string{"web-baseline", "rpc-incast", "mega-web-1m"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("corpus listing missing %q:\n%s", want, stdout)
		}
	}

	code, stdout, stderr := lfsim("scenario", "-check", "rpc-incast")
	if code != 0 {
		t.Fatalf("scenario rpc-incast: exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "envelope: OK") {
		t.Errorf("checked run did not report envelope OK:\n%s", stdout)
	}

	// A file-backed spec with an impossible envelope must trip -check.
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
	if code, _, stderr := lfsim("scenario", "-check", path); code != 1 || !strings.Contains(stderr, "envelope violated") {
		t.Errorf("impossible envelope: exit %d, stderr %q, want exit 1 and an envelope violation", code, stderr)
	}
	// Without -check the same run succeeds but reports violations.
	code, stdout, stderr = lfsim("scenario", path)
	if code != 0 {
		t.Fatalf("unchecked run: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "envelope: 1 violations") {
		t.Errorf("unchecked run did not print violations:\n%s", stdout)
	}

	if code, _, stderr := lfsim("scenario", "no-such-scenario"); code != 1 || !strings.Contains(stderr, "unknown scenario") {
		t.Errorf("unknown name: exit %d, stderr %q, want exit 1 and an unknown-scenario error", code, stderr)
	}
	if code, stdout, _ := lfsim("scenario", "-check", "-scale", "0.5", "web-baseline"); code != 1 || stdout != "" {
		t.Errorf("-check at -scale 0.5: exit %d, stdout %q, want exit 1 and no report", code, stdout)
	}
}

// TestLfsimRejectsBeforeAnyOutput: a flag the run kind does not take, a stray
// argument or an old-syntax line is the flag package's error (exit 2); a
// value no run can use names its flag (exit 1). Both refuse before any
// output, not from the first rep once its header is printed.
func TestLfsimRejectsBeforeAnyOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	fleet := []string{"fleet", "-members", "2", "-duration", "50ms"}
	scen := []string{"scenario"}
	with := func(base []string, args ...string) []string {
		return append(append([]string{}, base...), args...)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		// Flags another run kind takes: the scenario runner has no
		// telemetry scope, no injector, no reps and no fleet plane; the
		// fleet runner has no scheme, dumbbell or per-host injector.
		{with(scen, "-trace", out, "rpc-incast"), 2, "not defined: -trace"},
		{with(scen, "-trace-jsonl", out, "rpc-incast"), 2, "not defined: -trace-jsonl"},
		{with(scen, "-metrics-out", out, "rpc-incast"), 2, "not defined: -metrics-out"},
		{with(scen, "-flight-out", out, "rpc-incast"), 2, "not defined: -flight-out"},
		{with(scen, "-listen", "127.0.0.1:0", "rpc-incast"), 2, "not defined: -listen"},
		{with(scen, "-reps", "3", "rpc-incast"), 2, "not defined: -reps"},
		{with(scen, "-fault-profile", "chaos", "rpc-incast"), 2, "not defined: -fault-profile"},
		{with(scen, "-members", "4", "rpc-incast"), 2, "not defined: -members"},
		{with(scen, "-duration", "1ms", "web-baseline"), 2, "not defined: -duration"},
		{with(scen, "-seed", "99", "web-baseline"), 2, "not defined: -seed"},
		{with(scen, "-cc", "nonsense", "web-baseline"), 2, "not defined: -cc"},
		{with(scen, "-flows", "0", "web-baseline"), 2, "not defined: -flows"},
		{[]string{"cc", "-check"}, 2, "not defined: -check"},
		{[]string{"cc", "-workload", "web-diurnal"}, 2, "not defined: -workload"},
		{with(fleet, "-fault-profile", "chaos"), 2, "not defined: -fault-profile"},
		{with(fleet, "-cc", "nonsense"), 2, "not defined: -cc"},
		{with(fleet, "-flows", "0"), 2, "not defined: -flows"},
		{with(fleet, "-adapt"), 2, "not defined: -adapt"},
		{with(fleet, "-fault-seed", "9"), 2, "not defined: -fault-seed"},
		{with(fleet, "-warmup", "3s"), 2, "not defined: -warmup"},
		{with(fleet, "-pretrain", "7"), 2, "not defined: -pretrain"},
		{with(fleet, "-interval", "0"), 2, "not defined: -interval"},
		{with(fleet, "-congested"), 2, "not defined: -congested"},
		{with(fleet, "-batch-interval", "1ns"), 2, "not defined: -batch-interval"},
		// Stray arguments, unknown kinds and the old flag-selected kinds.
		{[]string{"cc", "-cc", "bbr", "stray-arg"}, 2, `not expected: "stray-arg"`},
		{with(fleet, "stray-arg"), 2, `not expected: "stray-arg"`},
		{[]string{"scenario", "rpc-incast", "-check"}, 2, `not expected: "-check"`},
		{[]string{"scenario", "-check"}, 2, "name a scenario"},
		{nil, 2, "usage: lfsim"},
		{[]string{"nope"}, 2, "usage: lfsim"},
		{[]string{"-cc", "bbr"}, 2, "usage: lfsim"},
		// Values no run can use.
		{[]string{"cc", "-duration", "0", "-warmup", "1ms"}, 1, "-duration "},
		{[]string{"fleet", "-duration", "0"}, 1, "-duration "},
		{[]string{"cc", "-duration", "1ms", "-warmup", "-1ms"}, 1, "-warmup "},
		{[]string{"cc", "-duration", "1ms", "-flows", "0"}, 1, "-flows "},
		{[]string{"cc", "-cc", "nope", "-duration", "1ms", "-reps", "2"}, 1, "-cc "},
		{[]string{"cc", "-adapt", "-duration", "1ms", "-reps", "2"}, 1, "-adapt "},
		{[]string{"cc", "-fault-profile", "nope", "-duration", "1ms", "-reps", "2"}, 1, "-fault-profile "},
		{[]string{"fleet", "-members", "0"}, 1, "-members "},
		{[]string{"fleet", "-members", "4", "-canary", "4"}, 1, "-canary "},
		{[]string{"fleet", "-canary", "-1"}, 1, "-canary "},
		{with(fleet, "-reps", "2", "-metrics-out", out), 1, "-reps 1"},
		{[]string{"scenario", "-scale", "-1", "rpc-incast"}, 1, "-scale "},
	} {
		code, stdout, stderr := lfsim(c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("lfsim %s: exit %d, stderr %q; want exit %d naming %q", strings.Join(c.args, " "), code, stderr, c.code, c.want)
		}
		if stdout != "" {
			t.Errorf("lfsim %s: rejected run still printed a report:\n%s", strings.Join(c.args, " "), stdout)
		}
	}
}
