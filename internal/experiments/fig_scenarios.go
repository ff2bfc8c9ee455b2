package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/scenario"
	"github.com/liteflow-sim/liteflow/scenarios"
)

// FigScenarios sweeps the embedded actor-scenario corpus (scenarios/*.json)
// through the scenario harness and reports one point per scenario for the
// headline envelope metrics. The 1M-flow scale smoke (mega-web-1m) is
// excluded here — it exists to stress memory and heap residency, not to be
// re-run inside every suite sweep; TestMegaWebMillionFlows covers it.
//
// cfg.Seed offsets every scenario's base seed relative to the calibrated
// corpus (Seed 1 == the shipped seeds) and cfg.Scale scales the session
// population, so the golden suite pins serial-vs-parallel byte-identity for
// the whole corpus through this one runner.
func FigScenarios(cfg Config) Result {
	specs, err := scenario.LoadCorpus(scenarios.FS)
	if err != nil {
		panic(fmt.Sprintf("scenarios: embedded corpus failed to load: %v", err))
	}
	res := Result{
		ID:     "scenarios",
		Title:  "Actor scenario corpus: goodput / tail latency / responses per scenario",
		XLabel: "scenario index",
		YLabel: "per-metric (Mbps, ms, count)",
	}
	goodput := Series{Name: "goodput-mbps"}
	p99 := Series{Name: "p99-ms"}
	responses := Series{Name: "responses"}
	opts := scenario.RunOpts{
		Scale:      cfg.Scale,
		SeedOffset: uint64(cfg.Seed - 1),
	}
	i := 0
	for _, s := range specs {
		if s.Name == "mega-web-1m" {
			continue
		}
		r, err := scenario.Run(s, opts)
		if err != nil {
			panic(fmt.Sprintf("scenarios: %s: %v", s.Name, err))
		}
		x := float64(i)
		goodput.X = append(goodput.X, x)
		goodput.Y = append(goodput.Y, r.Total.GoodputMbps)
		p99.X = append(p99.X, x)
		p99.Y = append(p99.Y, r.Total.P99Ms)
		responses.X = append(responses.X, x)
		responses.Y = append(responses.Y, float64(r.Total.Responses))
		env := "envelope unchecked (scaled run)"
		if r.EnvelopeChecked {
			env = "envelope OK"
			if n := len(r.Violations); n > 0 {
				env = fmt.Sprintf("envelope VIOLATED (%d)", n)
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("x=%d %s: %d flows, %s", i, s.Name, r.Flows, env))
		i++
	}
	res.Series = []Series{goodput, p99, responses}
	return res
}
