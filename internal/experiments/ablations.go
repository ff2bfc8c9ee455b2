package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// AblTaylor reproduces the paper's §3.1 design argument for lookup tables
// over Taylor-series activation approximation: a polynomial is accurate only
// near its expansion point and costs more multiplications per evaluation as
// its degree grows, while the LUT is uniformly accurate at constant cost.
func AblTaylor(cfg Config) Result {
	res := Result{ID: "abl-taylor", Title: "LUT vs Taylor-series activation approximation (§3.1)",
		XLabel: "Taylor degree", YLabel: "max abs error over [-4,4] / muls"}
	const limit, samples = 4.0, 2001

	for _, act := range []nn.Activation{nn.Tanh, nn.Sigmoid} {
		errS := Series{Name: act.String() + "-taylor-maxerr"}
		mulS := Series{Name: act.String() + "-taylor-muls"}
		for _, deg := range []int{3, 5, 7, 9, 11} {
			coeffs := quant.TaylorCoeffs(act, deg)
			var muls int
			maxErr, _ := quant.ApproxError(act, func(x float64) float64 {
				y, m := quant.TaylorEval(coeffs, x)
				muls = m
				return y
			}, limit, samples)
			errS.X = append(errS.X, float64(deg))
			errS.Y = append(errS.Y, maxErr)
			mulS.X = append(mulS.X, float64(deg))
			mulS.Y = append(mulS.Y, float64(muls))
		}
		res.Series = append(res.Series, errS, mulS)

		// The LUT the snapshots actually use: constant cost (one divide,
		// one interpolation) and uniform accuracy.
		lut := quant.LUTApprox(act, 4096, 8, 1<<16)
		lutMax, lutMean := quant.ApproxError(act, lut, limit, samples)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s LUT(4096 entries): max err %.2e, mean err %.2e, constant cost; degree-9 Taylor max err %.2e",
			act, lutMax, lutMean, errS.Y[3]))
	}
	return res
}

// AblUpdate reproduces the §3.4 design argument for the active-standby
// switch: a naive blocking install holds the router lock for the whole
// parameter transfer, stalling every fast-path decision; the active-standby
// switch stalls nothing. The experiment installs a snapshot mid-flow with
// both mechanisms and reports the worst decision outage and the goodput
// around the install.
func AblUpdate(cfg Config) Result {
	res := Result{ID: "abl-update", Title: "Snapshot update: active-standby vs blocking lock (§3.4)",
		XLabel: "mechanism (0=standby 1=blocking)", YLabel: "worst decision gap ms / goodput Gbps"}
	// The blocking install holds the lock while parameters transfer and the
	// module initializes — tens of milliseconds at testbed scale.
	const blockTime = 150 * netsim.Millisecond

	run := func(blocking bool) (worstGapMs, goodGbps float64, blocked int64) {
		d := rig.NewDumbbell(rig.DumbbellOpts{Background: rig.BurstyUDP})
		eng := d.Eng

		aur, _ := pretrainedNets()
		ccfg := core.DefaultConfig()
		ccfg.FlowCacheTimeout = 0 // long-lived flows; sweeper noise unwanted
		lf := d.Deploy(ccfg, rig.Build(aur, ccfg.Quant, "m0")).Core
		lf.SetFlowCache(false)

		var lastDecision netsim.Time
		var worstGap netsim.Time
		d.AddFlow(func(flow netsim.FlowID) tcp.CongestionControl {
			ctrl := cc.NewMIController(eng, core.NewFlowBackend(lf, flow), 500e6)
			ctrl.OnState = func(state []float64, a float64, mi cc.MISummary) {
				now := eng.Now()
				if lastDecision > 0 && now-lastDecision > worstGap {
					worstGap = now - lastDecision
				}
				lastDecision = now
			}
			return ctrl
		})

		warmup := cfg.dur(3 * netsim.Second)
		installAt := warmup + cfg.dur(netsim.Second)
		dur := cfg.dur(4 * netsim.Second)
		eng.At(installAt, func() {
			mod := rig.Build(aur, ccfg.Quant, "m1")
			if blocking {
				if err := lf.InstallBlocking(mod, blockTime); err != nil {
					panic(err)
				}
				return
			}
			// Active-standby: register (standby), then switch roles.
			if _, err := lf.RegisterModel(mod); err != nil {
				panic(err)
			}
			if err := lf.Activate(); err != nil {
				panic(err)
			}
		})

		d.Run(warmup, dur)
		return float64(worstGap) / 1e6, float64(d.Delivered(0)*8) / (float64(dur) / 1e9) / 1e9,
			lf.Stats().BlockedQueries
	}

	gaps := Series{Name: "worst-decision-gap-ms"}
	good := Series{Name: "goodput-Gbps"}
	for i, blocking := range []bool{false, true} {
		gap, g, blocked := run(blocking)
		gaps.X = append(gaps.X, float64(i))
		gaps.Y = append(gaps.Y, gap)
		good.X = append(good.X, float64(i))
		good.Y = append(good.Y, g)
		name := "active-standby"
		if blocking {
			name = "blocking-lock"
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: worst decision gap %.1f ms, goodput %.3f Gbps, %d stalled queries",
			name, gap, g, blocked))
	}
	res.Series = append(res.Series, gaps, good)
	return res
}
