package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestBloatOffsetsBaseWithinRounding pins what bloat's doc promises on the
// scenario's own nets (the fleet's 4→8→1 at seed 1, bloated at seed 8 by 1.0):
// bloated(x) − (base(x)+off) stays within the summation bound, and is not
// always zero.
func TestBloatOffsetsBaseWithinRounding(t *testing.T) {
	const off = 1.0
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1)
	bloated := bloat(base, 2048, off, 8)
	out := base.Layers[1]
	m := math.Abs(out.B[0]) + off // |tanh| ≤ 1 bounds each |w·h| by |w|
	for _, w := range out.W[0] {
		m += math.Abs(w)
	}
	bound := float64(out.In+2) * 0x1p-52 * m

	r := rand.New(rand.NewSource(1))
	differ := 0
	const n = 10000
	for k := 0; k < n; k++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = r.NormFloat64() * 2
		}
		want := base.Infer(x)[0] + off
		got := bloated.Infer(x)[0]
		if d := math.Abs(got - want); d > bound {
			t.Fatalf("input %v: bloated %v, base+off %v: differ by %g > bound %g", x, got, want, d, bound)
		} else if d != 0 {
			differ++
		}
	}
	if differ == 0 {
		t.Errorf("bloated(x) == base(x)+off on all %d inputs; bloat's doc says they differ in the last bits", n)
	}
	t.Logf("%d of %d inputs differ, bound %g", differ, n, bound)
}

// TestFleetCanaryUngatedFlagsRegression: without the gate, installing the
// deliberately bloated snapshot must show up in the flight-recorder delta as
// a goodput collapse and a query-latency p99 jump between the pre- and
// post-install windows — the fleet dutifully shipped the bad push everywhere.
func TestFleetCanaryUngatedFlagsRegression(t *testing.T) {
	res := RunCanaryScenario(CanaryScenarioOpts{
		Members: 4, Seed: 1, Dur: netsim.Time(0.05 * float64(2*netsim.Second)),
	})
	if res.QBefore <= 0 || res.PBefore <= 0 {
		t.Fatalf("empty pre-install window: goodput=%g p99=%g", res.QBefore, res.PBefore)
	}
	if res.QAfter >= 0.9*res.QBefore {
		t.Errorf("goodput did not regress: before %g, after %g", res.QBefore, res.QAfter)
	}
	if res.PAfter <= 1.5*res.PBefore {
		t.Errorf("query p99 did not regress: before %g, after %g", res.PBefore, res.PAfter)
	}
	if len(res.Blacklisted) != 0 || res.Stats.Rollbacks != 0 {
		t.Errorf("ungated run should not gate anything: blacklisted %v, rollbacks %d",
			res.Blacklisted, res.Stats.Rollbacks)
	}
}

// TestFleetCanaryChaosAcceptance is the chaos acceptance criterion for the
// staged rollout plane: with the gate on, the deliberately degraded snapshot
// must be caught at the canary stage — the bad epoch activates on canary
// members only, auto-rollback restores them to the prior released version,
// and no non-canary member ever reports a blacklisted epoch in
// MemberEpochs() at any sampled instant. Members 3 is the odd case: the
// fabric rounds it up to 4 hosts and everything must be sized from that.
func TestFleetCanaryChaosAcceptance(t *testing.T) {
	for _, members := range []int{4, 3} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			canaryChaosAcceptance(t, members)
		})
	}
}

func canaryChaosAcceptance(t *testing.T, members int) {
	res := RunCanaryScenario(CanaryScenarioOpts{
		Members: members, CanaryCount: 1, Gate: true,
		Seed: 1, Dur: netsim.Time(0.05 * float64(2*netsim.Second)),
	})
	st := res.Stats

	// The gate must actually have fired: at least one bad epoch blacklisted
	// and at least one canary member rolled back.
	if st.CanaryFails < 1 {
		t.Fatalf("canary gate never failed a verdict: %+v", st)
	}
	if st.Rollbacks < 1 {
		t.Fatalf("no canary member was rolled back: %+v", st)
	}
	if len(res.Blacklisted) < 1 {
		t.Fatalf("no epoch blacklisted: %+v", st)
	}
	// Healthy drift epochs before the bad push must have passed the gate —
	// the gate blocks bad pushes, not all pushes.
	if st.CanaryPasses < 1 {
		t.Errorf("no healthy epoch ever passed the canary stage: %+v", st)
	}

	bad := make(map[int64]bool, len(res.Blacklisted))
	for _, e := range res.Blacklisted {
		bad[e] = true
	}
	canary := make(map[int]bool, len(res.Canaries))
	for _, i := range res.Canaries {
		canary[i] = true
	}

	// Non-canary members must never have been observed on a blacklisted
	// epoch; the canary cohort must have carried one (that is its job) and
	// must have been restored — every blacklisted epoch in its history is
	// followed by an older (released) epoch, never held to the end.
	sawBadOnCanary := false
	for i, hist := range res.EpochsSeen {
		for j, e := range hist {
			if !bad[e] {
				continue
			}
			if !canary[i] {
				t.Fatalf("non-canary member %d observed blacklisted epoch %d (history %v)", i, e, hist)
			}
			sawBadOnCanary = true
			if j+1 < len(hist) && hist[j+1] >= e {
				t.Errorf("canary member %d moved forward off blacklisted epoch %d: %v", i, e, hist)
			}
		}
	}
	if !sawBadOnCanary {
		t.Errorf("no canary member ever observed a blacklisted epoch: %v (blacklist %v)",
			res.EpochsSeen, res.Blacklisted)
	}
	for i, e := range res.Final {
		if bad[e] {
			if !canary[i] {
				t.Errorf("non-canary member %d finished on blacklisted epoch %d", i, e)
			} else {
				t.Errorf("canary member %d finished on blacklisted epoch %d (rollback did not land)", i, e)
			}
		}
	}

	// The gate protects fleet goodput: the post-push window must stay within
	// a sane fraction of the pre-push window, far above the ungated collapse
	// (~0.25 at these parameters).
	if r := res.GoodputRatio(); r < 0.6 {
		t.Errorf("gated fleet goodput collapsed anyway: ratio %.3f", r)
	}
}

// TestFleetCanaryFigureContrast: the experiment figure must tell the story —
// the ungated run regresses, the gated run blocks, and the gated goodput
// ratio beats the ungated one by a wide margin.
func TestFleetCanaryFigureContrast(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	res := FigFleetCanary(Config{Scale: 0.05, Seed: 1, Flight: fr})

	for _, name := range []string{"goodput-qps-ungated", "goodput-qps-gated", "query-p99-ns-ungated", "query-p99-ns-gated"} {
		if res.Get(name) == nil {
			t.Fatalf("missing series %q: %+v", name, res.Series)
		}
	}
	ug := res.Get("goodput-qps-ungated")
	g := res.Get("goodput-qps-gated")
	uRatio := ug.Y[1] / ug.Y[0]
	gRatio := g.Y[1] / g.Y[0]
	if uRatio >= 0.9 {
		t.Errorf("ungated run did not regress: ratio %.3f", uRatio)
	}
	if gRatio < uRatio+0.2 {
		t.Errorf("gate bought no goodput: gated ratio %.3f vs ungated %.3f", gRatio, uRatio)
	}
	var blocked, regressed bool
	for _, n := range res.Notes {
		if strings.Contains(n, "BLOCKED") {
			blocked = true
		}
		if strings.Contains(n, "REGRESSION: degraded snapshot reached") {
			regressed = true
		}
	}
	if !blocked || !regressed {
		t.Errorf("notes missing verdicts (blocked=%v regressed=%v): %v", blocked, regressed, res.Notes)
	}
	if fr.Ticks() == 0 {
		t.Error("caller-supplied flight recorder absorbed no samples")
	}
}
