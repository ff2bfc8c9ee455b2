package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// Fig11 reproduces Figure 11: goodput of one congested flow under every
// deployment of the same NNs — LF-Aurora and LF-MOCC (kernel snapshots)
// versus CCP at per-ACK/1 ms/10 ms/100 ms, with BBR and CUBIC for reference.
// The LF deployments match the finest CCP intervals and beat the coarse
// ones; their goodput is also far less variable.
func Fig11(cfg Config) Result {
	res := Result{ID: "fig11", Title: "CC goodput across deployments (1 flow, congested)",
		XLabel: "scheme idx", YLabel: "goodput Gbps"}
	schemes := []scheme{
		{name: "LF-Aurora", key: "lf-aurora"},
		ccpScheme("ccp-aurora", "CCP-Aurora", 0),
		ccpScheme("ccp-aurora", "CCP-Aurora", netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", 10*netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", 100*netsim.Millisecond),
		{name: "LF-MOCC", key: "lf-mocc"},
		ccpScheme("ccp-mocc", "CCP-MOCC", 0),
		ccpScheme("ccp-mocc", "CCP-MOCC", netsim.Millisecond),
		ccpScheme("ccp-mocc", "CCP-MOCC", 10*netsim.Millisecond),
		ccpScheme("ccp-mocc", "CCP-MOCC", 100*netsim.Millisecond),
		{name: "BBR", key: "bbr"},
		{name: "CUBIC", key: "cubic"},
	}
	mean := Series{Name: "goodput"}
	for i, sc := range schemes {
		out := runCC(ccRun{scheme: sc, flows: 1, congested: true,
			warmup: cfg.dur(3 * netsim.Second), dur: cfg.dur(8 * netsim.Second)})
		m := out.windows.Mean()
		std := out.windows.Quantile(0.84) - out.windows.Quantile(0.16)
		mean.X = append(mean.X, float64(i))
		mean.Y = append(mean.Y, m)
		mean.Err = append(mean.Err, std/2)
		res.Notes = append(res.Notes, fmt.Sprintf("[%d] %-18s goodput %.3f Gbps (±%.3f)", i, sc.name, m, std/2))
	}
	res.Series = append(res.Series, mean)
	return res
}

// Fig13 reproduces Figure 13: N concurrent flows in a non-congested setting,
// aggregate throughput normalized to BBR. The LF deployments ride within a
// few percent of BBR (kernel-cheap integer inference once per MI), CUBIC
// pays its cube-root arithmetic per ACK, and the CCP deployments fall off a
// cliff as the interval shrinks.
func Fig13(cfg Config) Result {
	res := Result{ID: "fig13", Title: "Deployment overhead: normalized aggregate throughput",
		XLabel: "flows N", YLabel: "throughput / BBR"}
	series, bbr := normalizedToBBR(cfg, []scheme{
		{name: "CUBIC", key: "cubic"},
		{name: "LF-Aurora", key: "lf-aurora"},
		{name: "LF-MOCC", key: "lf-mocc"},
		ccpScheme("ccp-aurora", "CCP-Aurora", netsim.Millisecond),
		ccpScheme("ccp-mocc", "CCP-MOCC", netsim.Millisecond),
	})
	res.Series = series
	for _, n := range []int{2, 4, 6, 8, 10} {
		res.Notes = append(res.Notes, fmt.Sprintf("BBR N=%d aggregate %.2f Gbps", n, bbr[n]))
	}
	return res
}

// FigDummy reproduces the §5.1 "High Throughput & Low Latency" summary:
// a dummy NN with Aurora's structure whose generated code always emits line
// rate, run without netem delay against kernel BBR. The snapshot machinery
// costs less than 5%.
func FigDummy(cfg Config) Result {
	res := Result{ID: "dummy", Title: "LF-Dummy-NN vs BBR, no added latency",
		XLabel: "flows N", YLabel: "throughput / BBR"}
	ns := []int{2, 4, 6}
	s := Series{Name: "LF-Dummy-NN"}
	for _, n := range ns {
		bbr := runCC(ccRun{scheme: scheme{name: "BBR", key: "bbr"}, flows: n, congested: false,
			warmup: cfg.dur(netsim.Second), dur: cfg.dur(2 * netsim.Second)})
		dummy := runCC(ccRun{scheme: scheme{name: "LF-Dummy", key: "lf-dummy"}, flows: n, congested: false,
			warmup: cfg.dur(netsim.Second), dur: cfg.dur(2 * netsim.Second)})
		norm := 0.0
		if bbr.aggGbps > 0 {
			norm = dummy.aggGbps / bbr.aggGbps
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, norm)
		res.Notes = append(res.Notes, fmt.Sprintf("N=%d: BBR %.2f Gbps, LF-Dummy %.2f Gbps (%.0f%%)",
			n, bbr.aggGbps, dummy.aggGbps, norm*100))
	}
	res.Series = append(res.Series, s)
	return res
}
