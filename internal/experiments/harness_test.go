package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// suiteBytes runs the given runners through RunSuite with a live registry,
// tracer and flight recorder and renders everything comparable: the report
// text, the Prometheus export, the Chrome trace export and the flight
// recording.
func suiteBytes(t *testing.T, runners []Runner, cfg Config, parallel int) (report, metrics, trace, flight string) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	cfg.Obs = obs.New(reg, tracer)
	cfg.Flight = obs.NewFlightRecorder(0)
	var b strings.Builder
	for _, sr := range RunSuite(runners, cfg, parallel) {
		b.WriteString(sr.Result.String())
		b.WriteByte('\n')
	}
	var tb, fb bytes.Buffer
	if err := tracer.WriteChromeTrace(&tb); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	if err := cfg.Flight.WriteJSONL(&fb); err != nil {
		t.Fatalf("flight export: %v", err)
	}
	return b.String(), string(reg.PrometheusText()), tb.String(), fb.String()
}

// TestRunSuiteParallelMatchesSerial: two different runners that each drive a
// flight recorder, run serially and on four workers, give byte-identical
// reports, metrics, traces and flight recordings — the per-job telemetry
// children are joined in job order, not completion order. The
// all-experiment check without a flight recorder lives in
// determinism_test.go.
func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	var runners []Runner
	for _, id := range []string{"fleet-scale", "fleet-canary"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		runners = append(runners, r)
	}
	cfg := Config{Scale: 0.02, Seed: 1}

	serialRep, serialMet, serialTr, serialFl := suiteBytes(t, runners, cfg, 1)
	parRep, parMet, parTr, parFl := suiteBytes(t, runners, cfg, 4)

	if serialFl == "" {
		t.Fatal("flight recording is empty")
	}
	if serialRep != parRep {
		t.Errorf("report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serialRep, parRep)
	}
	if serialMet != parMet {
		t.Errorf("metrics export differs between -parallel 1 and -parallel 4")
	}
	if serialTr != parTr {
		t.Errorf("trace export differs between -parallel 1 and -parallel 4")
	}
	if serialFl != parFl {
		t.Errorf("flight export differs between -parallel 1 and -parallel 4 (%d vs %d bytes)", len(serialFl), len(parFl))
	}
}
