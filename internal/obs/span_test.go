package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestSpanLifecycleTree checks the core span contract: a root opened before
// its version exists buffers children, and End flushes the whole tree with
// the late-assigned version stamped as the Chrome pid, children on their
// member tracks, and the stage/e2e histograms fed.
func TestSpanLifecycleTree(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	sc := obs.New(reg, tr)
	st := obs.NewSpanTracer(sc)

	sp := st.Root("fleet_rollout", 1000)
	sp.Child("pool", 1000, 4000)
	sp.SetVersion(17)
	sp.Child("build", 5000, 0)
	sp.MarkMember("install_parked", 2, 5000)
	sp.Mark("install_deferred", 6000, "queued", 3)
	sp.End(9000)

	ev := tr.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5 (root + 4 children): %+v", len(ev), ev)
	}
	root := ev[0]
	if root.Name != "fleet_rollout" || root.Pid != 17 || root.Dur != 8000 {
		t.Fatalf("root event wrong: %+v", root)
	}
	for i, e := range ev {
		if e.Pid != 17 {
			t.Fatalf("event %d missing version pid: %+v", i, e)
		}
	}
	var member obs.Event
	for _, e := range ev {
		if e.Name == "install_parked" {
			member = e
		}
	}
	if member.Tid != 3 {
		t.Fatalf("member mark not on member track: %+v", member)
	}

	if got := sc.Histogram("liteflow_snapshot_e2e_ns", "", obs.DurationBuckets()).Count(); got != 1 {
		t.Fatalf("e2e histogram count = %d, want 1", got)
	}
	h := sc.Histogram("liteflow_snapshot_stage_ns", "", obs.DurationBuckets(),
		obs.Label{Key: "stage", Value: "pool"})
	if h.Count() != 1 || h.Sum() != 4000 {
		t.Fatalf("pool stage histogram wrong: count=%d sum=%g", h.Count(), h.Sum())
	}

	// The flushed tree must render as valid Chrome JSON with the pid set.
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, b.String())
	}
	if doc.TraceEvents[0]["pid"] != 17.0 {
		t.Fatalf("chrome pid = %v, want 17", doc.TraceEvents[0]["pid"])
	}
}

// TestSpanFailedAndDiscard: EndFailed flushes without feeding the e2e
// histogram; a root that is never ended is discarded with its children.
func TestSpanFailedAndDiscard(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	st := obs.NewSpanTracer(obs.New(reg, tr))

	sp := st.Root("snapshot_lifecycle", 0)
	sp.Child("pool", 0, 100)
	sp.EndFailed(200, "abandoned")
	if len(tr.Events()) != 2 {
		t.Fatalf("failed root did not flush: %d events", len(tr.Events()))
	}
	if got := reg.Histogram("liteflow_snapshot_e2e_ns", "", obs.DurationBuckets()).Count(); got != 0 {
		t.Fatalf("failed lifecycle fed the e2e histogram (count=%d)", got)
	}
	// Post-end operations are inert.
	sp.Child("late", 300, 1)
	sp.End(400)
	if len(tr.Events()) != 2 {
		t.Fatal("ended span accepted more work")
	}

	tr = obs.NewTracer(64)
	st = obs.NewSpanTracer(obs.New(reg, tr))
	dp := st.Root("snapshot_lifecycle", 0)
	dp.Child("pool", 0, 100)
	if len(tr.Events()) != 0 {
		t.Fatalf("un-ended span emitted %d events", len(tr.Events()))
	}
}

// TestSpanNilSafety: nil tracers and spans are inert, matching the package's
// no-op conventions.
func TestSpanNilSafety(t *testing.T) {
	var st *obs.SpanTracer
	sp := st.Root("x", 0)
	sp.Child("pool", 0, 1)
	sp.SetVersion(1)
	sp.Mark("m", 0, "k", 1)
	sp.End(10)
	st.Lone("member_install", 1, 0, 0, 10)

	// A span tracer over a metrics-only scope must feed histograms but emit
	// no events (and not accumulate buffered children forever).
	reg := obs.NewRegistry()
	mst := obs.NewSpanTracer(obs.New(reg, nil))
	msp := mst.Root("x", 0)
	msp.Child("pool", 0, 50)
	msp.End(100)
	if got := reg.Histogram("liteflow_snapshot_e2e_ns", "", obs.DurationBuckets()).Count(); got != 1 {
		t.Fatalf("metrics-only span lost the e2e observation (count=%d)", got)
	}
}

// TestSpanLone: immediate emission with version and member track, no root
// required.
func TestSpanLone(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	st := obs.NewSpanTracer(obs.New(reg, tr))
	st.Lone("member_install", 9, 1, 500, 700)
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Pid != 9 || ev[0].Tid != 2 || ev[0].Dur != 700 {
		t.Fatalf("lone span wrong: %+v", ev)
	}
	h := reg.Histogram("liteflow_snapshot_stage_ns", "", obs.DurationBuckets(),
		obs.Label{Key: "stage", Value: "member_install"})
	if h.Count() != 1 {
		t.Fatal("lone span did not feed the stage histogram")
	}
}
