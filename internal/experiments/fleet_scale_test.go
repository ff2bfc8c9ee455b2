package experiments

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/scenarios"
)

// TestFleetChaosRecoversToEpochParity is the distribution plane's acceptance
// gate: with injected slow-path outages darkening odd members mid-rollout,
// installs must park on the degraded cores (never silently drop), and the
// recovery tail must bring every member back to the fleet epoch.
func TestFleetChaosRecoversToEpochParity(t *testing.T) {
	r := RunFleetScenario(FleetScenarioOpts{Members: 4, Seed: 3, Dur: netsim.Second, Chaos: true})

	if r.Stats.Epoch < 2 {
		t.Fatalf("fleet minted %d epochs; the drifting model must force fan-outs", r.Stats.Epoch)
	}
	if r.Stats.OutageDrops == 0 {
		t.Fatal("chaos run injected no outage drops; the scenario exercised nothing")
	}
	if r.Stats.InstallsParked == 0 {
		t.Error("no install parked during outages; degraded members must park, not drop")
	}
	if r.Stats.InstallsAbandoned != 0 {
		t.Errorf("%d installs abandoned; chaos must degrade gracefully, not lose versions", r.Stats.InstallsAbandoned)
	}
	// Epoch parity after recovery: every member converged back to the fleet
	// epoch once its outages ended and its batches resumed.
	if r.Stats.StaleMembers != 0 {
		t.Errorf("%d members still stale after the recovery tail", r.Stats.StaleMembers)
	}
	for i, e := range r.Epochs {
		if e != r.Stats.Epoch {
			t.Errorf("member %d at epoch %d, fleet at %d — no parity", i, e, r.Stats.Epoch)
		}
	}
	if r.PeakStale == 0 {
		t.Error("staleness gauge never moved; rollout waves should lag members transiently")
	}

	// The clean twin at the same seed must see no outage machinery at all.
	c := RunFleetScenario(FleetScenarioOpts{Members: 4, Seed: 3, Dur: netsim.Second, Chaos: false})
	if c.Stats.OutageDrops != 0 || c.Stats.InstallsParked != 0 {
		t.Errorf("clean run saw %d drops / %d parked; fault injection leaked", c.Stats.OutageDrops, c.Stats.InstallsParked)
	}
	if c.Stats.StaleMembers != 0 {
		t.Errorf("clean run ended with %d stale members", c.Stats.StaleMembers)
	}
	// Chaos costs staleness, not correctness: the mean lag must be no better
	// than the clean run's rollout-wave transients.
	if r.MeanStale < c.MeanStale {
		t.Errorf("chaos mean staleness %.3f below clean %.3f; outages should add lag", r.MeanStale, c.MeanStale)
	}
}

// TestFleetScaleShape smokes the registered experiment: goodput scales with
// member count (queries never block on the control plane) and every run
// drains its staleness by the end of the recovery tail.
func TestFleetScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := FigFleetScale(Config{Scale: 0.25, Seed: 1})
	for _, name := range []string{"goodput-clean", "goodput-chaos", "stale-clean", "stale-chaos"} {
		s := res.Get(name)
		if s == nil || len(s.Y) != 3 {
			t.Fatalf("series %s missing or wrong length: %v", name, s)
		}
	}
	for _, name := range []string{"goodput-clean", "goodput-chaos"} {
		g := res.Get(name)
		for i := 1; i < len(g.Y); i++ {
			if g.Y[i] <= g.Y[i-1] {
				t.Errorf("%s must grow with member count: %v", name, g.Y)
			}
		}
	}
	if len(res.Notes) != 6 {
		t.Errorf("want one note per (count, variant) run, got %d", len(res.Notes))
	}
}

// TestFleetWorkloadShaping checks the scenario→fleet-plane wiring: a diurnal
// workload thins member query cadence at the troughs (fewer total queries
// than the flat cadence at the same seed), the run stays deterministic, and
// the distribution plane itself — epochs minted, parity at the end — is
// untouched by load shaping.
func TestFleetWorkloadShaping(t *testing.T) {
	specs, err := scenario.LoadCorpus(scenarios.FS)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	var diurnal *scenario.Spec
	for _, s := range specs {
		if s.Arrival.Diurnal != nil {
			diurnal = s
			break
		}
	}
	if diurnal == nil {
		t.Fatal("corpus has no diurnal scenario to shape with")
	}

	base := FleetScenarioOpts{Members: 2, Seed: 5, Dur: 400 * netsim.Millisecond}
	flat := RunFleetScenario(base)
	shapedOpts := base
	shapedOpts.Workload = diurnal
	shaped := RunFleetScenario(shapedOpts)
	again := RunFleetScenario(shapedOpts)

	if shaped.GoodputQPS != again.GoodputQPS || shaped.MeanStale != again.MeanStale {
		t.Errorf("shaped run not deterministic: %g/%f vs %g/%f queries per second/meanStale",
			shaped.GoodputQPS, shaped.MeanStale, again.GoodputQPS, again.MeanStale)
	}
	if shaped.GoodputQPS >= flat.GoodputQPS {
		t.Errorf("diurnal shaping did not thin load: %g shaped >= %g flat queries per second", shaped.GoodputQPS, flat.GoodputQPS)
	}
	if shaped.GoodputQPS == 0 {
		t.Error("shaped run made no queries; density floor failed")
	}
	if shaped.Stats.Epoch < 2 {
		t.Errorf("shaped run minted %d epochs; drift must still fan out under shaping", shaped.Stats.Epoch)
	}
	if shaped.Stats.StaleMembers != 0 {
		t.Errorf("%d members stale after recovery tail under shaping", shaped.Stats.StaleMembers)
	}
}
