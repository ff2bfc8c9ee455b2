package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// FigResilience measures graceful degradation: the same adaptation scenario
// as Figure 12, once clean and once under the chaos fault profile (netlink
// drop/corrupt/delay/reorder, injected snapshot build failures, slow-path
// outage windows, CPU spikes) with the core's slow-path watchdog armed.
//
// The claim under test is the decoupling argument of the paper taken to its
// failure modes: when the slow path misbehaves, the kernel fast path keeps
// answering queries from the last good snapshot — goodput bends, it does not
// break. The watchdog counts degradations (liteflow_core_degraded_total) and
// recoveries; the run must finish with zero panics and a non-trivial share
// of the clean run's goodput.
func FigResilience(cfg Config) Result {
	res := Result{ID: "resilience", Title: "Goodput under injected faults (graceful degradation)",
		XLabel: "time s", YLabel: "goodput Gbps"}
	dur := cfg.dur(30 * netsim.Second)
	period := dur / 3
	T := 100 * netsim.Millisecond

	clean := runAdaptation(cfg, adaptVariant{name: "clean", adapt: true}, T, dur, period, 1)
	chaos := runAdaptation(cfg, adaptVariant{
		name: "chaos", adapt: true,
		faults:   fault.Chaos(),
		watchdog: true, wdWindow: 3 * T,
	}, T, dur, period, 1)

	res.Series = append(res.Series, clean.series("clean"), chaos.series("chaos+watchdog"))

	fs := chaos.faultStats
	cs := chaos.coreStats
	ratio := 0.0
	if clean.meanGbps > 0 {
		ratio = chaos.meanGbps / clean.meanGbps
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("goodput: clean %.3f vs chaos %.3f Gbps (%.0f%% retained)",
			clean.meanGbps, chaos.meanGbps, ratio*100),
		fmt.Sprintf("faults injected: %d total (%d drops, %d corrupt, %d delays, %d reorders, %d build fails, %d outages, %d cpu spikes)",
			fs.Total(), fs.Drops, fs.Corrupts, fs.Delays, fs.Reorders,
			fs.BuildFails+fs.QuantFails, fs.Outages, fs.Spikes),
		fmt.Sprintf("degradation: %d degraded, %d recovered; fast path answered %d queries throughout",
			cs.Degraded, cs.Recovered, cs.Queries),
		fmt.Sprintf("slow path: %d updates, %d install retries, %d abandoned, %d outage-dropped batches, %d malformed samples rejected",
			chaos.svcStats.Updates, chaos.svcStats.InstallRetries,
			chaos.svcStats.InstallsAbandoned, chaos.svcStats.OutageDrops,
			chaos.svcStats.Malformed),
	)
	return res
}
