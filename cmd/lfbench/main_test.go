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

// TestLfbenchNoArgs: a command line that picks no single run — none, more
// than one of -list/-all/-exp, or a stray argument — exits 2 before any
// output.
func TestLfbenchNoArgs(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-list", "-exp", "nope", "-all"},
		{"-list", "-exp", "fig14"},
		{"-list", "-all"},
		{"-exp", "fig14", "-all"},
		{"-list", "stray"},
		{"-exp", "fig14", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("lfbench %s exited %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 {
			t.Errorf("lfbench %s printed on stdout:\n%s", strings.Join(args, " "), stdout.String())
		}
	}
}

// TestLfbenchRejectsNonPositiveScale: a -scale of zero or less would floor
// every duration and count, so it exits 1 naming the flag before any output.
func TestLfbenchRejectsNonPositiveScale(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "scenarios", "-scale", "-1"},
		{"-exp", "fig7", "-scale", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("lfbench %s exited %d, want 1", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 {
			t.Errorf("lfbench %s printed on stdout:\n%s", strings.Join(args, " "), stdout.String())
		}
		if !strings.Contains(stderr.String(), "-scale") {
			t.Errorf("lfbench %s: stderr does not name -scale: %s", strings.Join(args, " "), stderr.String())
		}
	}
}

// TestLfbenchParallelMatchesSerial asserts the CLI contract documented in the
// package comment: for a fixed -seed/-scale, stdout and the telemetry exports
// are byte-identical regardless of -parallel. (Several jobs on the pool are
// checked by the experiments package's TestRunSuiteParallelMatchesSerial.)
func TestLfbenchParallelMatchesSerial(t *testing.T) {
	runOnce := func(parallel int) (report string, trace, prom []byte) {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "trace.json")
		promPath := filepath.Join(dir, "metrics.prom")
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "fig14", "-scale", "0.05", "-seed", "1",
			"-parallel", strconv.Itoa(parallel),
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
			"-parallel", strconv.Itoa(parallel),
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
