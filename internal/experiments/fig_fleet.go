package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/scenario"
)

// FleetScenarioOpts parameterizes one fleet distribution-plane run. The same
// scenario backs the fleet-scale experiment, lfsim fleet, and the
// chaos-recovery acceptance test.
type FleetScenarioOpts struct {
	Members int // fleet members, one host CPU each
	Seed    int64
	Dur     netsim.Time // drift-active window; the run continues to 2×Dur as a recovery tail
	Chaos   bool        // odd members suffer injected slow-path outages
	Obs     obs.Scope
	// Flight, when non-nil, is sampled from Obs's registry every FlightEvery
	// of virtual time (default agg/2) for the whole run.
	Flight      *obs.FlightRecorder
	FlightEvery netsim.Time
	// CanaryCount > 0 stages every minted epoch through that many canary
	// members before release (fleet.Config canary gating), each observed
	// for four aggregation intervals. The gate reads the run's flight
	// recorder; private telemetry is provisioned when the caller brought
	// none.
	CanaryCount int
	// Workload, when non-nil, shapes every member's datapath query cadence
	// by the scenario's arrival process: the inter-query gap is divided by
	// the scenario's arrival density at the current point of the run, so a
	// diurnal scenario makes fleet-wide load breathe day/night while the
	// distribution-plane machinery stays untouched. Nil keeps the flat
	// cadence (and the pre-scenario byte-identical reports).
	Workload *scenario.Spec
}

// FleetScenarioResult reports one scenario run.
type FleetScenarioResult struct {
	Members     int
	GoodputQPS  float64 // member datapath queries per measured second, fleet-wide
	MeanStale   float64 // time-averaged stale-member count over the whole run
	PeakStale   int
	Epochs      []int64 // final per-member epochs
	Blacklisted []int64 // epochs the canary gate refused to release (mint order)
	Stats       fleet.Stats
}

// RunFleetScenario provisions one host CPU and kernel datapath per member
// and a single fleet.Controller slow path, drives per-member query
// + sample streams, and lets a drifting model force versioned fan-outs. With
// Chaos, odd members go dark on a jittered schedule: their watchdogs degrade
// the core, installs park, and the recovery tail (Dur..2×Dur, drift off)
// must bring every member back to epoch parity.
func RunFleetScenario(o FleetScenarioOpts) FleetScenarioResult {
	const aggDivisor = 100 // aggregation rounds per measured window
	dur := o.Dur
	agg := dur / aggDivisor
	if agg < 200*netsim.Microsecond {
		agg = 200 * netsim.Microsecond
	}
	end := 2 * dur

	// Feeding continues through the recovery tail so parked members have
	// batches to catch up on.
	stream := rig.Stream{Every: agg / 8}
	if stream.Every < 10*netsim.Microsecond {
		stream.Every = 10 * netsim.Microsecond
	}
	if o.Workload != nil {
		stream.Density = o.Workload.ArrivalDensity
	}
	ro := rig.FleetOpts{
		Members: o.Members, Seed: o.Seed, Agg: agg, Dur: dur, End: end,
		Scope: o.Obs, Flight: o.Flight, FlightEvery: o.FlightEvery,
		CanaryCount: o.CanaryCount, Stream: stream,
	}
	if o.Chaos {
		ro.OddFaults = fault.Profile{OutagePeriod: int64(dur / 4), OutageDuration: int64(dur / 10)}
	}
	f := rig.NewFleet(ro)
	eng, ctrl := f.Eng, f.Ctrl

	// Staleness integral: sample the lag gauge on a fixed cadence.
	staleSum, staleSamples, peakStale := 0.0, 0, 0
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		s := ctrl.StaleMembers()
		staleSum += float64(s)
		staleSamples++
		peakStale = max(peakStale, s)
		return agg / 2, eng.Now() < end
	}).Start(agg / 2)

	// Drift stops at the end of the measured window; the tail is pure
	// distribution-plane recovery (outage gaps let dark members catch up).
	eng.At(dur, func() { f.User.DriftEvery = 0 })

	eng.RunUntil(dur)
	for eng.Now() < end && ctrl.StaleMembers() > 0 {
		eng.RunUntil(eng.Now() + agg)
	}
	f.Stop()

	return FleetScenarioResult{
		Members:     len(ctrl.Members()),
		GoodputQPS:  float64(f.Queries) / (float64(dur) / 1e9),
		MeanStale:   staleSum / float64(staleSamples),
		PeakStale:   peakStale,
		Epochs:      ctrl.MemberEpochs(),
		Blacklisted: ctrl.Blacklisted(),
		Stats:       ctrl.Stats(),
	}
}

// FigFleetScale (experiment #21, beyond the paper) measures the snapshot
// distribution plane as the fleet grows: one controller slow path serving
// 2/4/8 kernel datapaths, clean versus chaos (injected slow-path outages on
// odd members). Goodput is the fleet-wide model-query rate — it must scale
// with member count in both variants because queries never block on the
// control plane — and staleness is the time-averaged number of members
// lagging the fleet epoch, which chaos inflates (parked installs ride out
// outage windows) but must drain to zero by the end of every run's recovery
// tail.
func FigFleetScale(cfg Config) Result {
	res := Result{ID: "fleet-scale", Title: "Fleet snapshot distribution: goodput and staleness vs member count",
		XLabel: "members", YLabel: "queries/s | mean stale members"}

	const baseDur = 4 * netsim.Second
	dur := cfg.dur(baseDur)

	// Indexed by variant: 0 clean, 1 chaos.
	goodput := [2]Series{{Name: "goodput-clean"}, {Name: "goodput-chaos"}}
	stale := [2]Series{{Name: "stale-clean"}, {Name: "stale-chaos"}}

	for _, members := range []int{2, 4, 8} {
		for v, chaos := range []bool{false, true} {
			// Six fleets under one cfg.Obs: each counts into a child of its
			// own, so the stats it reports are its own
			// (TestTelemetryIsPassive). They share the flight recorder, which
			// samples whichever child is running.
			sc, _, join := obs.Fork(cfg.Obs, nil)
			r := RunFleetScenario(FleetScenarioOpts{
				Members: members, Seed: cfg.Seed, Dur: dur, Chaos: chaos,
				Obs: sc, Flight: cfg.Flight,
			})
			join()
			x := float64(r.Members)
			goodput[v].X = append(goodput[v].X, x)
			goodput[v].Y = append(goodput[v].Y, r.GoodputQPS)
			stale[v].X = append(stale[v].X, x)
			stale[v].Y = append(stale[v].Y, r.MeanStale)
			variant := "clean"
			if chaos {
				variant = "chaos"
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%d members %s: %d epochs, %d installs (%d parked, %d abandoned, %d deferred), %d outage drops, peak stale %d, final stale %d",
				r.Members, variant, r.Stats.Epoch, r.Stats.MemberInstalls,
				r.Stats.InstallsParked, r.Stats.InstallsAbandoned, r.Stats.InstallsDeferred,
				r.Stats.OutageDrops, r.PeakStale, r.Stats.StaleMembers))
		}
	}
	res.Series = append(res.Series, goodput[0], goodput[1], stale[0], stale[1])
	return res
}
