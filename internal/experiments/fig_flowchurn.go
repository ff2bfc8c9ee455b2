package experiments

import (
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// FigFlowChurn (experiment #20, beyond the paper) stresses the router's
// flow cache the way the ROADMAP's "millions of users" target would:
// hundreds of thousands of short flows churn through the cache — arriving,
// querying a few times, then FINing or going silent — while a long-lived
// adaptation loop keeps installing and activating new snapshots, so flow
// consistency (paper §3.4) must pin old snapshots until their last flow
// drains. The figure reports the live cache population over time; the notes
// quantify the incremental sweeper's per-tick work bound
// (liteflow_core_sweep_scan_total): the largest single sweep tick must stay
// far below the peak cache size, where a full sweep would walk the whole
// cache every period.
func FigFlowChurn(cfg Config) Result {
	res := Result{ID: "flow-churn", Title: "Flow-cache churn at scale (incremental sweep)",
		XLabel: "time ms", YLabel: "flows"}

	const (
		baseFlows   = 250_000
		baseDur     = 2500 * netsim.Millisecond
		meanLife    = 25 * netsim.Millisecond
		cacheTO     = 40 * netsim.Millisecond
		finFrac     = 0.6
		adaptGens   = 8 // snapshot generations activated across the run
		prebuiltMod = 4 // distinct module payloads reused round-robin
	)
	nFlows := cfg.count(baseFlows)
	dur := cfg.dur(baseDur)
	// Arrivals fill the first 85% of the run; the tail lets the cache drain.
	ratePerSec := float64(nFlows) / (float64(dur) * 0.85 / 1e9)

	eng := netsim.NewEngine()
	ccfg := core.DefaultConfig()
	ccfg.FlowCacheTimeout = cacheTO
	// Pre-build a few interchangeable snapshot payloads outside the event
	// loop (codegen is the expensive part); the adaptation loop re-registers
	// them round-robin, each registration becoming a fresh Model generation.
	mods := make([]*codegen.Module, prebuiltMod)
	for i := range mods {
		net := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, cfg.Seed+int64(i))
		mods[i] = rig.Build(net, ccfg.Quant, fmt.Sprintf("churn%d", i))
	}
	dep := rig.Deploy(eng, nil, ksim.DefaultCosts(), ccfg, mods[0], cfg.Obs)
	lf := dep.Core

	// Long-lived adaptation loop: a new snapshot activates every dur/adaptGens.
	installs := 0
	adaptPeriod := dur / adaptGens
	var adapt func()
	adapt = func() {
		eng.After(adaptPeriod, func() {
			if eng.Now() >= dur {
				return
			}
			installs++
			if _, err := lf.RegisterModel(mods[installs%prebuiltMod]); err != nil {
				panic("experiments: " + err.Error())
			}
			if err := lf.Activate(); err != nil {
				panic("experiments: " + err.Error())
			}
			adapt()
		})
	}
	adapt()

	// Churn workload: each flow opens, spreads its queries over its
	// lifetime, then FINs or goes silent (idle-expired by the sweeper).
	// Per-flow events chain lazily so the event heap stays small; query
	// buffers are shared (the engine is single-threaded) so the steady
	// state allocates only the scheduling closures.
	flows := workload.GenerateChurnAt(rand.New(rand.NewSource(cfg.Seed)), nFlows, ratePerSec, meanLife, finFrac, 0)
	in := make([]int64, 4)
	out := make([]int64, 1)
	query := func(f netsim.FlowID) {
		if err := lf.QueryModel(f, in, out); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	var fins int64
	for i := range flows {
		f := flows[i]
		step := netsim.Time(0)
		if f.Queries > 1 {
			step = (f.Close - f.Open) / netsim.Time(f.Queries-1)
		}
		var run func(left int)
		run = func(left int) {
			query(f.ID)
			if left > 1 {
				eng.After(step, func() { run(left - 1) })
				return
			}
			if f.Fin {
				fins++
				lf.FlowFinished(f.ID)
			}
		}
		eng.At(f.Open, func() { run(f.Queries) })
	}

	// Sample the cache population on a fixed cadence.
	cached := Series{Name: "cached-flows"}
	sampleEvery := dur / 50
	var sample func()
	sample = func() {
		ms := float64(eng.Now()) / 1e6
		cached.X = append(cached.X, ms)
		cached.Y = append(cached.Y, float64(lf.CachedFlows()))
		if eng.Now() < dur {
			eng.After(sampleEvery, sample)
		}
	}
	eng.After(sampleEvery, sample)

	eng.RunUntil(dur)
	peak := 0
	for _, y := range cached.Y {
		if int(y) > peak {
			peak = int(y)
		}
	}
	// Drain: let the longest-lived flows finish and idle entries expire, so
	// refcounts return to zero and retired snapshots unload.
	eng.Run()
	dep.Stop()
	res.Series = append(res.Series, cached)

	st := lf.Stats()
	res.Notes = append(res.Notes,
		fmt.Sprintf("churned %d flows (%.0f/s, mean life %dms): %d queries, %d FIN drops, %d idle-swept",
			nFlows, ratePerSec, meanLife/netsim.Millisecond, st.Queries, fins, st.SweptEntries),
		fmt.Sprintf("incremental sweep: max tick scan %d of peak %d cached (%d scans total)",
			lf.MaxSweepTickScan(), peak, st.SweepScans),
		fmt.Sprintf("adaptation: %d installs, %d switches, %d snapshot unloads, %d models resident, %d flows cached after drain",
			st.Installs, st.Switches, st.Unloads, lf.Models(), lf.CachedFlows()))
	return res
}
