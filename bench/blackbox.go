package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/experiments"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/scenarios"
)

// The two workloads whose op is one call into the program. The benchmark
// sees them from outside only: one span per rep, the returned report, and
// whatever registry it passed in.

// spineleaf-actors-d2: the mixed-enterprise scenario of the embedded corpus
// on a two-domain windowed engine.

const actorsScenario = "mixed-enterprise"

func actorsOpts(seed int64, quick bool) scenario.RunOpts {
	o := scenario.RunOpts{Domains: 2, SeedOffset: uint64(seed - 1)}
	if quick {
		o.Scale = 0.25 // the envelope is defined at natural scale only
	}
	return o
}

// actorsSetup loads and validates the corpus, picks the scenario and plays
// its first 0.2 ms as a pilot. The rig (engine, fabric, sessions) is built
// inside the op, where the benchmark cannot time it apart; so short a pilot
// is that build and little else (a millisecond of host time, against five for
// the first millisecond of traffic), so work moved into it shows here.
func actorsSetup(seed int64, quick bool) (any, error) {
	specs, err := scenario.LoadCorpus(scenarios.FS)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.Name != actorsScenario {
			continue
		}
		if quick {
			s.DurationMs /= 5
		}
		pilot := *s
		pilot.DurationMs = 0.2
		pilot.Arrival.RampMs = min(pilot.Arrival.RampMs, pilot.DurationMs)
		if _, err := scenario.Run(&pilot, actorsOpts(seed, quick)); err != nil {
			return nil, fmt.Errorf("pilot: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("scenario %q not in the corpus", actorsScenario)
}

func actorsRep(state any, e *env) (*repOut, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		return nil, fmt.Errorf("spineleaf-actors-d2 needs GOMAXPROCS >= 2: a parallel engine measured on one core does not count")
	}
	spec := state.(*scenario.Spec)
	opts := actorsOpts(e.seed, e.quick)

	stopHeap := e.heap.watch()
	e.tr.startRep(e.rep)
	m := startMeter()
	e.tr.begin(spOp, false)
	r, err := scenario.Run(spec, opts)
	e.tr.end()
	out := &repOut{m: m.stop(), layer: map[string]float64{}}
	e.tr.stopRep()
	stopHeap()
	if err != nil {
		return nil, err
	}

	out.units = r.Total.Responses
	dg := newDigest()
	dg.str(r.String())
	out.digest = dg.sum()
	l := out.layer
	l["actor.sessions"] = float64(r.Total.Sessions)
	l["actor.requests"] = float64(r.Total.Requests)
	l["actor.responses"] = float64(r.Total.Responses)
	l["scenario.host_us_per_flow"] = ratio(float64(out.m.hostNs)/1e3, float64(r.Flows))
	l["tcp.delivered_bytes"] = float64(r.Total.BytesDown)
	l["netsim.loss_drops"] = float64(r.LossDrops)
	if e.tr != nil {
		// The engine is inside the op; the same fabric on the same kind of
		// engine tells how it is partitioned.
		eng := netsim.NewParallelEngine(opts.Domains)
		topo.BuildSpineLeaf(eng, topo.DefaultSpineLeafOpts(spec.Fabric.HostsPerLeaf))
		l["netsim.partitions"] = float64(eng.Partitions())
		l["netsim.lookahead_us"] = float64(eng.Lookahead()) / 1e3
	}

	if e.quick {
		out.check("responses", r.Total.Responses > 0, "no response completed")
	} else {
		out.check("envelope", r.EnvelopeChecked && len(r.Violations) == 0,
			"envelope checked=%v, violations: %s", r.EnvelopeChecked, strings.Join(r.Violations, "; "))
	}
	return out, nil
}

// fleet-rollout: the gated canary scenario, 16 members, a bad push halfway.

type fleetTelemetry struct {
	reg *obs.Registry
	fr  *obs.FlightRecorder
}

func newFleetTelemetry() *fleetTelemetry {
	return &fleetTelemetry{reg: obs.NewRegistry(), fr: obs.NewFlightRecorder(0)}
}

// fleetOpts is the scenario with a fresh registry and flight recorder for its
// telemetry to land in. The scenario runs private ones when handed none, so
// passing them does not change the program.
func fleetOpts(seed int64, quick bool) (experiments.CanaryScenarioOpts, *fleetTelemetry) {
	o := experiments.CanaryScenarioOpts{Members: 16, CanaryCount: 2, Gate: true,
		Seed: seed, Dur: 100 * netsim.Millisecond}
	if quick {
		o.Members, o.CanaryCount, o.Dur = 4, 1, 10*netsim.Millisecond
	}
	tel := newFleetTelemetry()
	o.Obs, o.Flight = obs.New(tel.reg, nil), tel.fr
	return o, tel
}

// fleetSetup plays the first fiftieth of the scenario as a pilot: the fabric,
// the sixteen member cores with their first snapshot and the controller are
// built inside the op, and the pilot is mostly that build.
func fleetSetup(seed int64, quick bool) (any, error) {
	o, _ := fleetOpts(seed, quick)
	o.Dur /= 50
	experiments.RunCanaryScenario(o)
	return nil, nil
}

func fleetRep(state any, e *env) (*repOut, error) {
	o, tel := fleetOpts(e.seed, e.quick)
	reg := tel.reg

	stopHeap := e.heap.watch()
	e.tr.startRep(e.rep)
	m := startMeter()
	e.tr.begin(spOp, false)
	res := experiments.RunCanaryScenario(o)
	e.tr.end()
	out := &repOut{m: m.stop(), layer: map[string]float64{}}
	e.tr.stopRep()
	stopHeap()

	st := res.Stats
	out.units = int64(sumSeries(reg, "liteflow_core_queries_total"))
	dg := newDigest()
	dg.i64(out.units, st.Epoch, st.ReleasedEpoch, int64(st.StaleMembers), st.Aggregations, st.Batches,
		st.Samples, st.Converged, st.FidelityChecks, st.SkippedByNecessity, st.VersionsBuilt,
		st.MemberInstalls, st.CanaryPasses, st.CanaryFails, st.Rollbacks, res.Ticks)
	dg.i64(res.Blacklisted...)
	dg.i64(res.Final...)
	out.digest = dg.sum()
	l := out.layer
	l["core.queries"] = float64(out.units)
	l["core.installs"] = float64(st.MemberInstalls)
	l["fleet.versions_built"] = float64(st.VersionsBuilt)
	l["fleet.member_installs"] = float64(st.MemberInstalls)
	l["fleet.canary_pass"] = float64(st.CanaryPasses)
	l["fleet.canary_fail"] = float64(st.CanaryFails)
	l["fleet.rollbacks"] = float64(st.Rollbacks)
	for _, w := range tel.fr.Window(0, int64(2*o.Dur)) {
		if strings.HasPrefix(w.Name, "liteflow_fleet_stale_members") {
			for _, p := range w.Points {
				l["fleet.stale_peak"] = max(l["fleet.stale_peak"], p.V)
			}
		}
	}
	l["obs.series"] = float64(countSeries(reg))
	l["obs.flight_ticks"] = float64(res.Ticks)

	// Every epoch minted after the last released one carries the bloated
	// model; the gate must have blacklisted each of them, except one whose
	// verdict was still pending when the run ended.
	bad := map[int64]bool{}
	for _, ep := range res.Blacklisted {
		bad[ep] = true
	}
	missed := 0
	for ep := res.Released + 1; ep < st.Epoch; ep++ {
		if !bad[ep] {
			missed++
		}
	}
	early := 0
	for ep := range bad {
		if ep <= res.Released {
			early++
		}
	}
	if e.quick {
		// At a tenth of the duration the verdict windows hold too few flight
		// samples for the gate to be exact.
		out.check("blacklist", len(bad) > 0, "no epoch blacklisted")
	} else {
		out.check("blacklist", len(bad) > 0 && missed == 0 && early == 0 && int64(len(bad)) == st.CanaryFails,
			"blacklist %v: released %d, minted %d, %d degraded epochs missed, %d healthy ones listed, %d canary fails",
			res.Blacklisted, res.Released, st.Epoch, missed, early, st.CanaryFails)
	}
	canary := map[int]bool{}
	for _, i := range res.Canaries {
		canary[i] = true
	}
	leaked := ""
	for i, hist := range res.EpochsSeen {
		for _, ep := range hist {
			if bad[ep] && !canary[i] && leaked == "" {
				leaked = fmt.Sprintf("member %d activated blacklisted epoch %d", i, ep)
			}
		}
	}
	out.check("contained", leaked == "", "%s", leaked)
	stale := 0
	for i, ep := range res.Final {
		if !canary[i] && ep != res.Released {
			stale++
		}
	}
	out.check("parity", stale == 0, "%d non-canary members not on released epoch %d: %v", stale, res.Released, res.Final)
	return out, nil
}

// The registry is read through its Prometheus text, the one export every
// series has.

func eachSeries(reg *obs.Registry, fn func(name string, value float64)) {
	sc := bufio.NewScanner(bytes.NewReader(reg.PrometheusText()))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		fn(name, v)
	}
}

func countSeries(reg *obs.Registry) int {
	n := 0
	eachSeries(reg, func(string, float64) { n++ })
	return n
}

func sumSeries(reg *obs.Registry, family string) float64 {
	var sum float64
	eachSeries(reg, func(name string, v float64) {
		if name == family {
			sum += v
		}
	})
	return sum
}
