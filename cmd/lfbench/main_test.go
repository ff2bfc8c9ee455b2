package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/experiments"
)

func TestLfbenchList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list exited %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, r := range experiments.All() {
		if !strings.Contains(out, r.ID) {
			t.Errorf("-list output missing experiment %q", r.ID)
		}
	}
}

func TestLfbenchUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "no-such-figure"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr missing diagnostic: %s", stderr.String())
	}
}

func TestLfbenchNoArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no-arg run exited %d, want 2", code)
	}
}

// TestLfbenchSimDomains: -sim-domains picks the partitioned engine for an
// experiment that supports it, the number picks nothing, and a negative one
// is refused by name.
func TestLfbenchSimDomains(t *testing.T) {
	report := func(domains string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "dummy", "-scale", "0.02", "-sim-domains", domains}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run -sim-domains %s exited %d\nstderr: %s", domains, code, stderr.String())
		}
		return stdout.String()
	}
	if one, two := report("1"), report("2"); one == "" || one != two {
		t.Errorf("stdout differs between -sim-domains 1 and 2:\n--- 1\n%s\n--- 2\n%s", one, two)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "dummy", "-sim-domains", "-1"}, &stdout, &stderr); code != 2 {
		t.Errorf("-sim-domains -1 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-sim-domains -1") || stdout.Len() != 0 {
		t.Errorf("-sim-domains -1: stderr %q, stdout %q; want a refusal naming the flag and no report", stderr.String(), stdout.String())
	}
}

// TestLfbenchParallelMatchesSerial asserts the CLI contract documented in the
// package comment: for a fixed -seed/-scale, stdout and the telemetry exports
// are byte-identical regardless of -parallel, including under -reps.
func TestLfbenchParallelMatchesSerial(t *testing.T) {
	runOnce := func(parallel int) (report string, trace, prom []byte) {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "trace.json")
		promPath := filepath.Join(dir, "metrics.prom")
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "fig14", "-scale", "0.05", "-seed", "1",
			"-reps", "2", "-parallel", strconv.Itoa(parallel),
			"-trace", tracePath, "-metrics-out", promPath}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run -parallel %d exited %d\nstderr: %s", parallel, code, stderr.String())
		}
		tb, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(promPath)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String(), tb, pb
	}
	serialRep, serialTrace, serialProm := runOnce(1)
	parRep, parTrace, parProm := runOnce(4)
	if serialRep == "" {
		t.Fatal("empty report")
	}
	if serialRep != parRep {
		t.Errorf("stdout differs between -parallel 1 and -parallel 4:\n--- serial\n%s\n--- parallel\n%s", serialRep, parRep)
	}
	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("trace export differs between -parallel 1 and -parallel 4 (%d vs %d bytes)", len(serialTrace), len(parTrace))
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Errorf("metrics export differs between -parallel 1 and -parallel 4")
	}
	if !strings.Contains(serialRep, "aggregated over 2 reps") {
		t.Errorf("report missing reps aggregation note:\n%s", serialRep)
	}
}

// TestLfbenchTelemetryIsPassive is the CLI twin of the experiments package's
// TestTelemetryIsPassive: asking for an export changes no report byte. fig14
// builds ten adaptation rigs under one scope and reports each one's update
// count, which used to be the running total of all rigs before it.
func TestLfbenchTelemetryIsPassive(t *testing.T) {
	report := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-exp", "fig14", "-scale", "0.02", "-seed", "3"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %v exited %d\nstderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	without := report()
	with := report("-metrics-out", filepath.Join(t.TempDir(), "metrics.prom"))
	if without == "" || without != with {
		t.Errorf("stdout differs with -metrics-out:\n--- without\n%s\n--- with\n%s", without, with)
	}
}

// TestLfbenchFlightParallelMatchesSerial: the flight recording (and the span
// trace it rides with) must be byte-identical regardless of -parallel — the
// §4d obligation extended to -flight-out.
func TestLfbenchFlightParallelMatchesSerial(t *testing.T) {
	runOnce := func(parallel int) (report string, flight, trace []byte) {
		dir := t.TempDir()
		flightPath := filepath.Join(dir, "flight.jsonl")
		tracePath := filepath.Join(dir, "trace.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "fleet-canary", "-scale", "0.02", "-seed", "1",
			"-reps", "2", "-parallel", strconv.Itoa(parallel),
			"-flight-out", flightPath, "-trace", tracePath}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run -parallel %d exited %d\nstderr: %s", parallel, code, stderr.String())
		}
		fb, err := os.ReadFile(flightPath)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String(), fb, tb
	}
	serialRep, serialFlight, serialTrace := runOnce(1)
	parRep, parFlight, parTrace := runOnce(4)
	if len(serialFlight) == 0 {
		t.Fatal("flight recording is empty")
	}
	if serialRep != parRep {
		t.Errorf("stdout differs between -parallel 1 and -parallel 4:\n--- serial\n%s\n--- parallel\n%s", serialRep, parRep)
	}
	if !bytes.Equal(serialFlight, parFlight) {
		t.Errorf("flight export differs between -parallel 1 and -parallel 4 (%d vs %d bytes)", len(serialFlight), len(parFlight))
	}
	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("trace export differs between -parallel 1 and -parallel 4 (%d vs %d bytes)", len(serialTrace), len(parTrace))
	}
	if !strings.Contains(serialRep, "REGRESSION") {
		t.Errorf("canary report did not flag the degraded snapshot:\n%s", serialRep)
	}
	if !strings.Contains(string(serialFlight), `"kind":"cumulative"`) {
		t.Error("flight recording missing cumulative series")
	}
}
