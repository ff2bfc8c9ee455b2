package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// Fig01a reproduces Figure 1a: the goodput CDF of one CCP-Aurora flow on the
// congested testbed, for communication intervals 1 ms, 10 ms and 100 ms.
// Larger intervals reduce responsiveness and lose goodput.
func Fig01a(cfg Config) Result {
	res := Result{ID: "fig1a", Title: "Goodput CDF vs CCP interval (1 flow, congested)",
		XLabel: "goodput Gbps", YLabel: "CDF"}
	for _, iv := range []netsim.Time{netsim.Millisecond, 10 * netsim.Millisecond, 100 * netsim.Millisecond} {
		out := runCC(ccRun{
			scheme:    ccpScheme("ccp-aurora", "CCP-Aurora", iv),
			flows:     1,
			congested: true,
			warmup:    cfg.dur(3 * netsim.Second),
			dur:       cfg.dur(10 * netsim.Second),
		})
		pts := out.windows.CDF(20)
		s := Series{Name: fmt.Sprintf("%dms", iv/netsim.Millisecond)}
		for _, p := range pts {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.F)
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("interval %v: mean goodput %.3f Gbps",
			iv/netsim.Millisecond, out.windows.Mean()))
	}
	return res
}

// Fig01b reproduces Figure 1b: bottleneck queue length over time for the
// same intervals. Small intervals hold the queue short and stable; large
// intervals oscillate it.
func Fig01b(cfg Config) Result {
	res := Result{ID: "fig1b", Title: "Bottleneck queue vs CCP interval",
		XLabel: "time s", YLabel: "queue KB"}
	for _, iv := range []netsim.Time{netsim.Millisecond, 10 * netsim.Millisecond, 100 * netsim.Millisecond} {
		out := runCC(ccRun{
			scheme:      ccpScheme("ccp-aurora", "CCP-Aurora", iv),
			flows:       1,
			congested:   true,
			warmup:      cfg.dur(3 * netsim.Second),
			dur:         cfg.dur(6 * netsim.Second),
			sampleQueue: true,
		})
		s := Series{Name: fmt.Sprintf("%dms", iv/netsim.Millisecond)}
		var qsum stats.Summary
		for i := 0; i < out.queue.NumBins(); i++ {
			s.X = append(s.X, float64(i)*0.01)
			kb := out.queue.Avg(i) / 1e3
			s.Y = append(s.Y, kb)
			qsum.Add(kb)
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes,
			fmt.Sprintf("interval %dms: queue mean %.1f KB std %.1f KB", iv/netsim.Millisecond, qsum.Mean(), qsum.Std()))
	}
	return res
}

// Fig02 reproduces Figure 2: the Mahimahi toy experiment — a single
// NN-controlled flow on a 12 Mbps / 10 ms one-way link, driven through a
// userspace model at 10 ms vs 2.5 ms intervals. The coarse interval fails to
// converge to the available bandwidth.
func Fig02(cfg Config) Result {
	res := Result{ID: "fig2", Title: "Toy link convergence (12 Mbps Mahimahi analog)",
		XLabel: "time s", YLabel: "rate Mbps"}
	for _, iv := range []netsim.Time{10 * netsim.Millisecond, 2500 * netsim.Microsecond} {
		eng := netsim.NewEngine()
		a := tcp.NewHost(eng, 1)
		b := tcp.NewHost(eng, 2)
		// One-way delay 2.5 ms: the coarse 10 ms interval is then two RTTs
		// of staleness while the fine 2.5 ms interval is half an RTT —
		// preserving the paper's interval ratio on a link the simulated
		// controller can actually oscillate on.
		fwd := netsim.NewLink(eng, b, 12_000_000, 2500*netsim.Microsecond, netsim.NewDropTail(8_000))
		rev := netsim.NewLink(eng, a, 12_000_000, 2500*netsim.Microsecond, netsim.NewDropTail(1<<20))
		a.SetEgress(fwd)
		b.SetEgress(rev)

		aur, _ := pretrainedNets()
		backend := &cc.CCPBackend{Eng: eng, Costs: ksim.DefaultCosts(),
			Policy: cc.NewNNPolicy(aur), Interval: iv, UserMACs: aur.MACs()}
		ctrl := cc.NewMIController(eng, backend, 3_000_000)
		// The UDT-Aurora toy uses aggressive per-decision steps; with a
		// coarse interval the (interval-stale) decisions overshoot and the
		// flow cannot settle at the available bandwidth.
		ctrl.Delta = 0.25
		ctrl.MinRate = 500_000

		s := tcp.NewSender(a, 1, b.ID, 0, ctrl)
		r := tcp.NewReceiver(b, 1, a.ID)
		ts := stats.NewTimeSeries(200 * netsim.Millisecond)
		r.OnDeliver = func(n int, now netsim.Time) { ts.Add(now, float64(n)) }
		s.Start()
		eng.RunUntil(cfg.dur(30 * netsim.Second))
		ctrl.Stop()

		sr := Series{Name: fmt.Sprintf("egress-%.1fms", float64(iv)/1e6)}
		rates := ts.RatePerSecond()
		var tail stats.Summary
		for i, v := range rates {
			mbps := v * 8 / 1e6
			sr.X = append(sr.X, float64(i)*0.2)
			sr.Y = append(sr.Y, mbps)
			if i > len(rates)/2 {
				tail.Add(mbps)
			}
		}
		res.Series = append(res.Series, sr)
		// Time to first reach 90% of capacity — the convergence the figure
		// visualizes.
		conv := -1.0
		for i, v := range sr.Y {
			if v >= 0.9*12 {
				conv = sr.X[i]
				break
			}
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("interval %.1fms: steady-state egress %.2f Mbps of 12 (util %.0f%%), reaches 90%% at t=%.1fs",
				float64(iv)/1e6, tail.Mean(), tail.Mean()/12*100, conv))
	}
	return res
}

// Fig03 reproduces Figure 3: aggregate throughput of N concurrent CCP-Aurora
// flows (normalized to BBR) collapses as the communication interval shrinks
// and the flow count grows — the cross-space overhead wall.
func Fig03(cfg Config) Result {
	res := Result{ID: "fig3", Title: "Normalized aggregate throughput vs N (CCP overhead)",
		XLabel: "flows N", YLabel: "throughput / BBR"}
	res.Series, _ = normalizedToBBR(cfg, []scheme{
		ccpScheme("ccp-aurora", "CCP-Aurora", 100*netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", 10*netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", netsim.Millisecond),
	})
	return res
}

// normalizedToBBR runs BBR and then each scheme with N = 2…10 concurrent
// flows on the free path, and returns one series per scheme (BBR first) of
// aggregate throughput over BBR's at the same N, plus BBR's absolute Gbps.
func normalizedToBBR(cfg Config, schemes []scheme) ([]Series, map[int]float64) {
	var out []Series
	base := make(map[int]float64)
	for _, sc := range append([]scheme{{name: "BBR", key: "bbr"}}, schemes...) {
		s := Series{Name: sc.name}
		for _, n := range []int{2, 4, 6, 8, 10} {
			agg := runCC(ccRun{scheme: sc, flows: n, congested: false,
				warmup: cfg.dur(2 * netsim.Second), dur: cfg.dur(2 * netsim.Second)}).aggGbps
			if sc.key == "bbr" {
				base[n] = agg
			}
			norm := 0.0
			if base[n] > 0 {
				norm = agg / base[n]
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, norm)
		}
		out = append(out, s)
	}
	return out, base
}

// Fig04 reproduces Figure 4: mpstat softirq time for BBR vs CCP-Aurora at
// shrinking intervals (10 concurrent flows). Cross-space switching, not
// model execution, owns the CPU.
func Fig04(cfg Config) Result {
	res := Result{ID: "fig4", Title: "Softirq CPU time, 10 flows (mpstat)",
		XLabel: "scheme idx", YLabel: "softirq ms / share %"}
	schemes := []scheme{
		{name: "BBR", key: "bbr"},
		ccpScheme("ccp-aurora", "CCP-Aurora", 100*netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", 10*netsim.Millisecond),
		ccpScheme("ccp-aurora", "CCP-Aurora", netsim.Millisecond),
	}
	ms := Series{Name: "softirq-ms"}
	share := Series{Name: "softirq-share-%"}
	for i, sc := range schemes {
		out := runCC(ccRun{scheme: sc, flows: 10, congested: false,
			warmup: cfg.dur(2 * netsim.Second), dur: cfg.dur(2 * netsim.Second)})
		ms.X = append(ms.X, float64(i))
		ms.Y = append(ms.Y, float64(out.report.SoftIRQTime)/1e6)
		share.X = append(share.X, float64(i))
		share.Y = append(share.Y, out.report.SoftShare*100)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s", sc.name, out.report))
	}
	res.Series = append(res.Series, ms, share)
	return res
}
