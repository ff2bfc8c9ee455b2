// Package experiments reproduces every table and figure of the LiteFlow
// paper's evaluation (and the motivation-section experiments) on the
// simulated substrate. Each experiment is a pure function from a Config to a
// Result; cmd/lfbench prints them and bench_test.go wraps each in a
// testing.B benchmark. See DESIGN.md §3 for the experiment index.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// Config scales experiments between CI-fast and paper-faithful runs.
type Config struct {
	// Scale multiplies run durations and flow counts. 1.0 is the
	// paper-shaped run used for EXPERIMENTS.md; tests use ~0.1–0.3.
	Scale float64
	// Seed drives every random source.
	Seed int64
	// Obs, when non-zero, exports metrics and trace events from the
	// simulated components (threaded through core, netlink, topo, ksim).
	Obs obs.Scope
	// Flight, when non-nil, receives virtual-time registry samples from
	// experiments that drive a flight recorder (the fleet scenarios). RunSuite
	// gives each job a private recorder and folds them into Flight in job
	// order, so recordings are byte-identical serial vs parallel.
	Flight *obs.FlightRecorder
}

// dur scales a base duration by the config.
func (c Config) dur(base netsim.Time) netsim.Time {
	d := netsim.Time(float64(base) * c.Scale)
	if d < netsim.Millisecond {
		d = netsim.Millisecond
	}
	return d
}

// count scales an integer quantity, with a floor of 1.
func (c Config) count(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Series is one named line/bar of a figure.
type Series struct {
	Name string
	// X and Y are parallel; for bar rows X may be indices.
	X []float64
	Y []float64
	// Err holds optional per-point error bars (std deviations).
	Err []float64
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// String renders the result as an aligned text table, one row per X value.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		return b.String()
	}
	// Collect the union of X values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-14s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", r.YLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range r.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, " %16.4g", y)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) Result
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1a", "Goodput CDF vs CCP communication interval", Fig01a},
		{"fig1b", "Bottleneck queue length vs CCP interval", Fig01b},
		{"fig2", "Toy link convergence, 10ms vs 2.5ms interval", Fig02},
		{"fig3", "Normalized aggregate throughput vs flow count (CCP overhead)", Fig03},
		{"fig4", "Softirq CPU time vs CCP interval (mpstat)", Fig04},
		{"fig5", "Static snapshot vs traffic dynamics", Fig05},
		{"fig7", "Quantization accuracy loss vs scaling factor", Fig07},
		{"fig8", "Online adaptation convergence vs snapshot goodput", Fig08},
		{"fig11", "Congestion control goodput across deployments", Fig11},
		{"fig12", "Online adaptation under traffic dynamics", Fig12},
		{"fig13", "Deployment overhead: normalized aggregate throughput", Fig13},
		{"fig14", "Batch data delivery interval micro-benchmark", Fig14},
		{"dummy", "LF-Dummy-NN at high throughput & low latency (§5.1)", FigDummy},
		{"fig15", "Flow-size prediction latency CDF", Fig15},
		{"fig16", "Flow scheduling FCT by flow class", Fig16},
		{"fig17", "Load balancing FCT by flow class", Fig17},
		{"abl-taylor", "Ablation: LUT vs Taylor activation approximation (§3.1)", AblTaylor},
		{"abl-update", "Ablation: active-standby switch vs blocking install (§3.4)", AblUpdate},
		{"resilience", "Goodput under injected faults (graceful degradation)", FigResilience},
		{"flow-churn", "Flow-cache churn at scale: sharded cache + incremental sweep", FigFlowChurn},
		{"fleet-scale", "Fleet snapshot distribution: goodput + staleness vs member count", FigFleetScale},
		{"fleet-canary", "Canary gate: flight-recorder delta flags a degraded snapshot install", FigFleetCanary},
		{"scenarios", "Actor scenario corpus: per-scenario goodput, tail latency, responses", FigScenarios},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
