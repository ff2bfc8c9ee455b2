package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/rig"
)

// failurePathEvents are the slow paths' rarely-hit trace events. The suite
// goldens reach these arms through counters only — their trace golden is the
// tail of a default-capacity ring and holds none of them — so the test below
// pins their bytes, and fails if its runs stop producing any one of them.
var failurePathEvents = []string{
	"install_parked", "parked_activate", "install_retry", "install_abandoned",
	"build_failure", "outage_drop", "necessity_skip", "install_deferred",
	"late_join", "snapshot_lifecycle",
	"canary_fail", "rollback_wave", "member_rollback",
}

// chaosWithOutages is the chaos fault profile with its crash/restart clock —
// sized for the 30 s figures — scaled so several windows fit a short run.
func chaosWithOutages(period, duration netsim.Time) fault.Profile {
	p := fault.Chaos()
	p.OutagePeriod, p.OutageDuration = int64(period), int64(duration)
	return p
}

// failureAdaptRun is an adapting dumbbell flow under chaos with the core's
// watchdog armed: core.Service's outage, build-failure, retry, abandoned and
// parked-install arms.
func failureAdaptRun(sc obs.Scope) {
	const T = 20 * netsim.Millisecond
	const dur = 2 * netsim.Second
	faults := chaosWithOutages(300*netsim.Millisecond, 120*netsim.Millisecond)
	// Three failed builds in a row abandon an install; at the profile's own
	// 0.2 that is one install in a hundred.
	faults.BuildFailP = 0.4
	runAdaptation(Config{Seed: 1, Obs: sc}, adaptVariant{
		name: "chaos", adapt: true, watchdog: true, wdWindow: 3 * T, faults: faults,
	}, T, dur, dur/3, 1)
}

// failureFleetRun is a chaos fleet whose every epoch stages through a
// one-member canary cohort for eight aggregation rounds (so the next drift
// finds the wave still open), which enrolls one more member mid-run and pins
// member 0 for the middle half: fleet.Controller's parked installs, catch-up,
// deferred builds, failed verdicts, rollbacks and late joiner.
func failureFleetRun(t *testing.T, sc obs.Scope) {
	const agg = 2 * netsim.Millisecond
	const dur = 200 * netsim.Millisecond
	f := rig.NewFleet(rig.FleetOpts{
		Members: 4, Seed: 1, Agg: agg, Dur: dur, End: 2 * dur,
		CanaryCount: 1, CanaryWindow: 8 * agg,
		OddFaults: chaosWithOutages(dur/4, dur/10),
		Scope:     sc,
		Stream:    rig.Stream{Every: agg / 8},
	})
	f.Eng.At(dur/2, func() {
		cpu := ksim.NewHostCPU(f.Eng, 4)
		costs := ksim.DefaultCosts()
		late := sc.With(obs.Label{Key: "host", Value: "late"})
		co := core.NewCore(f.Eng, cpu, costs, core.DefaultConfig(), opt.WithScope(late))
		ch := netlink.NewChannel(f.Eng, cpu, costs, nil, opt.WithScope(late))
		if _, err := f.Ctrl.AddMember(co, ch); err != nil {
			t.Errorf("enrolling a member after Start: %v", err)
		}
	})
	// While member 0 is pinned the cohort is member 1, which has faults.
	m0 := f.Ctrl.Members()[0]
	f.Eng.At(dur/4, func() {
		if err := m0.Pin(m0.Epoch()); err != nil {
			t.Error(err)
		}
	})
	f.Eng.At(3*dur/4, m0.Unpin)
	f.Eng.At(dur, func() { f.User.DriftEvery = 0 })
	f.Eng.RunUntil(2 * dur)
	f.Stop()
}

// TestGoldenFailurePaths pins the trace JSONL and Prometheus text of the two
// runs above, from tracers sized to evict nothing. The per-charge CPU spans,
// queue drops and flow-cache hits are most of a run's events and say only that
// the datapath ran, so the trace goldens list every other event in full and
// close with the event count and FNV-1a digest of the whole stream: a byte
// moving anywhere fails the test, and a slow-path byte shows in the diff.
func TestGoldenFailurePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos runs; skipped with -short")
	}
	export := func(run func(obs.Scope)) (trace, prom []byte) {
		reg, tr := obs.NewRegistry(), obs.NewTracer(1<<20)
		run(obs.New(reg, tr))
		if n := tr.Evicted(); n != 0 {
			t.Fatalf("tracer evicted %d events; the golden must hold the whole run", n)
		}
		var full bytes.Buffer
		if err := tr.WriteJSONL(&full); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, line := range bytes.SplitAfter(full.Bytes(), []byte("\n")) {
			if !bytes.Contains(line, []byte(`,"cat":"cpu",`)) &&
				!bytes.Contains(line, []byte(`,"cat":"net",`)) &&
				!bytes.Contains(line, []byte(`,"cat":"flowcache",`)) {
				b.Write(line)
			}
		}
		h := fnv.New64a()
		h.Write(full.Bytes())
		fmt.Fprintf(&b, "# whole stream: %d events, fnv64a %016x\n", tr.Len(), h.Sum64())
		return b.Bytes(), reg.PrometheusText()
	}
	adaptTrace, adaptProm := export(failureAdaptRun)
	fleetTrace, fleetProm := export(func(sc obs.Scope) { failureFleetRun(t, sc) })

	for _, name := range failurePathEvents {
		key := []byte(`"name":"` + name + `"`)
		if !bytes.Contains(adaptTrace, key) && !bytes.Contains(fleetTrace, key) {
			t.Errorf("neither run emitted %q; failure-path coverage shrank", name)
		}
	}
	const golden = "testdata/failure_paths"
	checkGolden(t, golden+"_adapt.trace.golden", adaptTrace)
	checkGolden(t, golden+"_adapt.prom.golden", adaptProm)
	checkGolden(t, golden+"_fleet.trace.golden", fleetTrace)
	checkGolden(t, golden+"_fleet.prom.golden", fleetProm)
}
