package experiments

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// alphaUser is the user-provided implementation of the three LiteFlow
// userspace interfaces for the α-output CC models: online adaptation is
// self-supervised regression toward the achievable rate fraction observed in
// each batch (increase gently when the path is clean, track delivered rate
// down when it is congested).
type alphaUser struct {
	net *nn.Network
	opt nn.Optimizer
	cpu *ksim.CPU

	// probeGain is the multiplicative up-probe per batch on a clean path;
	// MOCC's tuner probes more aggressively, which is what makes it
	// reconverge faster in Figure 12.
	probeGain float64
	maxEpochs int
	lastLoss  float64

	// pending accumulates samples across deliveries so tiny batch
	// intervals (T = 1 ms delivers 0–1 samples per flush) do not drive
	// the tuner with single-sample noise.
	pending []core.Sample
}

func newAlphaUser(net *nn.Network, cpu *ksim.CPU) *alphaUser {
	return &alphaUser{net: net, opt: nn.NewAdam(1e-2), cpu: cpu,
		probeGain: 1.25, maxEpochs: 300, lastLoss: 1}
}

// Freeze implements core.Freezer.
func (a *alphaUser) Freeze() *nn.Network { return a.net }

// Stability implements core.Evaluator.
func (a *alphaUser) Stability() float64 { return a.lastLoss }

// Infer implements core.Evaluator.
func (a *alphaUser) Infer(in []float64) []float64 { return a.net.Infer(in) }

// OutputSize and InferBatch implement core.BatchEvaluator.
func (a *alphaUser) OutputSize() int                         { return a.net.OutputSize() }
func (a *alphaUser) InferBatch(xs [][]float64, ys []float64) { a.net.InferBatch(xs, ys) }

// Adapt implements core.Adapter. Aux layout (from the kernel collector):
// [alpha, deliveredFrac, latRatio, lossFrac].
func (a *alphaUser) Adapt(batch []core.Sample) {
	a.pending = append(a.pending, batch...)
	if len(a.pending) < 8 {
		return // wait for a meaningful window of MIs
	}
	batch = a.pending
	a.pending = nil
	// Aggregate the batch into one congestion verdict: per-MI measurements
	// jitter, and mixing per-sample regimes would give the conservative
	// min-fidelity gate a near-zero gap on every batch, freezing updates.
	var alpha, delivered, latRatio, lossFrac float64
	x := make([][]float64, 0, len(batch))
	for _, s := range batch {
		if len(s.Aux) < 4 {
			continue
		}
		x = append(x, s.Input)
		alpha += s.Aux[0]
		delivered += s.Aux[1]
		latRatio += s.Aux[2]
		lossFrac += s.Aux[3]
	}
	if len(x) == 0 {
		return
	}
	n := float64(len(x))
	alpha /= n
	delivered /= n
	latRatio /= n
	lossFrac /= n

	var target float64
	switch {
	case lossFrac > 0.005 || latRatio > 0.2 || delivered < alpha*0.85:
		// Congested or under-delivering: track the delivered fraction
		// down with headroom.
		target = delivered * 0.85
	default:
		// Clean: probe multiplicatively so recovery after a pattern
		// improvement takes a handful of batches, not tens.
		target = alpha*a.probeGain + 0.02
	}
	if target > 1 {
		target = 1
	}
	if target < 0.02 {
		target = 0.02
	}
	y := make([][]float64, len(x))
	for i := range y {
		y[i] = []float64{target}
	}
	// Train to convergence on the (tiny) batch so the userspace model
	// tracks its target tightly; a saturated sigmoid head otherwise barely
	// moves and the fidelity gap that triggers snapshot updates never
	// opens.
	var loss float64
	epochs := 0
	for ; epochs < a.maxEpochs; epochs++ {
		loss = nn.TrainBatch(a.net, a.opt, x, y, 5)
		if loss < 2e-4 {
			break
		}
	}
	a.lastLoss = loss
	if a.cpu != nil {
		// Userspace training compute: epochs × batch × ~3 passes of MACs.
		work := ksim.InferCost(1, a.net.MACs()) * netsim.Time(3*(epochs+1)*len(x))
		a.cpu.Charge(ksim.User, work)
	}
}

// adaptVariant selects the Figure 12 lines (and the resilience variants).
type adaptVariant struct {
	name  string
	mocc  bool // MOCC architecture + faster tuner
	adapt bool // false = N-O-A (frozen snapshot)

	// faults enables deterministic fault injection (zero value = none);
	// wdWindow > 0 arms the core's slow-path watchdog with that window.
	faults   fault.Profile
	wdWindow netsim.Time
}

// adaptOut is what the adaptation figures read.
type adaptOut struct {
	// rateGbps is flow 0's goodput per 500 ms bin.
	rateGbps []float64
	report   ksim.Report
	updates  int64
	switches int
	meanGbps float64
	svcStats core.ServiceStats

	coreStats  core.Stats
	faultStats fault.Stats
}

// runAdaptation executes one congested single-flow (plus optional extra
// flows) run with the full LiteFlow deployment: kernel snapshot + netlink
// batching at interval T + userspace service, under a switching background
// traffic pattern.
func runAdaptation(cfg Config, v adaptVariant, T netsim.Time, dur netsim.Time,
	switchPeriod netsim.Time, flows int) adaptOut {

	// The first background pattern is the model's training pattern (0.3 Gbps
	// available); later ones free up bandwidth a frozen model cannot claim.
	// Fault decision streams derive from the experiment seed, so faulted runs
	// are as reproducible as clean ones. A figure runs several of these rigs
	// under one cfg.Obs; each counts into a child of its own, so the stats it
	// reports are its own (TestTelemetryIsPassive).
	sc, _, join := obs.Fork(cfg.Obs, nil)
	defer join()
	d := rig.NewDumbbell(rig.DumbbellOpts{
		Background: rig.SwitchedUDP, SwitchPeriod: switchPeriod, SwitchSeed: cfg.Seed + 7,
		Faults: v.faults, FaultSeed: cfg.Seed + 11,
		Scope: sc,
	})
	eng, cpu := d.Sender.Eng, d.Sender.CPU

	// Userspace model, pre-trained for the 0.1 Gbps background pattern
	// (α ≈ 0.88 of the 1 Gbps line).
	var userNet *nn.Network
	probeGain := 1.25
	if v.mocc {
		userNet = cc.NewMOCCAlphaNet(cfg.Seed + 2)
		probeGain = 1.45 // MOCC's tuner reconverges faster (paper §5.1)
	} else {
		userNet = cc.NewAuroraAlphaNet(cfg.Seed + 1)
	}
	// Trained for the initial pattern: 0.3 Gbps available → α* ≈ 0.28.
	cc.PretrainAlpha(userNet, 0.28, 300, cfg.Seed+3)

	// Kernel core + snapshot. Long-lived CC flows disable the flow cache
	// so snapshot updates take effect mid-flow (paper §3.4 footnote).
	coreCfg := adaptiveCoreConfig()
	coreCfg.FlowCacheTimeout = 0
	coreCfg.WatchdogWindow = v.wdWindow
	dep := d.Deploy(coreCfg, rig.Build(userNet, coreCfg.Quant, "alpha0"))
	lf := dep.Core
	lf.SetFlowCache(false)

	// Slow path.
	user := newAlphaUser(userNet, cpu)
	user.probeGain = probeGain
	if v.adapt {
		dep.AttachSlowPath(cpu, user, T, d.Faults)
	}

	// Flows.
	ts := stats.NewTimeSeries(500 * netsim.Millisecond)
	d.OnDeliver = func(flow, n int, since netsim.Time) {
		if flow == 0 {
			ts.Add(since, float64(n))
		}
	}
	for i := 0; i < flows; i++ {
		d.AddFlow(func(flow netsim.FlowID) tcp.CongestionControl {
			ctrl := cc.NewAlphaController(eng, core.NewFlowBackend(lf, flow), d.BottleneckBps, 0.28)
			if v.adapt {
				ctrl.OnState = func(state []float64, alpha float64, mi cc.MISummary) {
					durMI := mi.End - mi.Start
					if durMI <= 0 {
						return
					}
					delivered := float64(mi.AckedBytes) * 8 / (float64(durMI) / 1e9) / float64(d.BottleneckBps)
					latRatio := 0.0
					if mi.MinRTT > 0 && mi.MinRTT < 1<<62 && mi.AvgRTT > 0 {
						latRatio = float64(mi.AvgRTT)/float64(mi.MinRTT) - 1
					}
					lossFrac := 0.0
					if mi.AckedBytes+mi.LostBytes > 0 {
						lossFrac = float64(mi.LostBytes) / float64(mi.AckedBytes+mi.LostBytes)
					}
					dep.Chan.Push(core.EncodeSample(core.Sample{
						Input: append([]float64(nil), state...),
						Aux:   []float64{alpha, delivered, latRatio, lossFrac},
						At:    eng.Now(),
					}))
				}
			}
			return ctrl
		})
	}

	d.Run(0, dur)

	out := adaptOut{report: cpu.Report(), coreStats: lf.Stats()}
	if dep.Svc != nil {
		out.updates = dep.Svc.Stats().Updates
		out.svcStats = dep.Svc.Stats()
	}
	if d.Faults != nil {
		out.faultStats = d.Faults.Stats()
	}
	if d.Switcher != nil {
		out.switches = d.Switcher.Switches
	}
	for _, v := range ts.RatePerSecond() {
		out.rateGbps = append(out.rateGbps, v*8/1e9)
	}
	out.meanGbps = float64(d.Delivered(0)*8) / (float64(dur) / 1e9) / 1e9
	return out
}

// series renders the run's 500 ms goodput bins as one figure line.
func (o adaptOut) series(name string) Series {
	s := Series{Name: name}
	for i, g := range o.rateGbps {
		s.X = append(s.X, float64(i)*0.5)
		s.Y = append(s.Y, g)
	}
	return s
}

// Fig05 reproduces Figure 5: a one-time quantized kernel model performs well
// while the environment matches its training pattern and degrades once the
// background traffic changes — lack of adaptation costs goodput.
func Fig05(cfg Config) Result {
	res := Result{ID: "fig5", Title: "Static snapshot vs traffic dynamics",
		XLabel: "time s", YLabel: "goodput Gbps"}
	dur := cfg.dur(60 * netsim.Second)
	period := dur / 3
	static := runAdaptation(cfg, adaptVariant{name: "static", adapt: false}, 0, dur, period, 1)
	adapted := runAdaptation(cfg, adaptVariant{name: "adapted", adapt: true},
		100*netsim.Millisecond, dur, period, 1)
	res.Series = append(res.Series, static.series("kernel-static-Aurora"), adapted.series("adaptive-reference"))
	// Quantify: in the training pattern both match; once the environment
	// changes the frozen snapshot leaves the freed bandwidth unclaimed.
	n := len(static.rateGbps)
	seg := n / 3
	firstS := stats.MeanOf(static.rateGbps[:seg])
	firstA := stats.MeanOf(adapted.rateGbps[:seg])
	restS := stats.MeanOf(static.rateGbps[seg:])
	restA := stats.MeanOf(adapted.rateGbps[seg:])
	res.Notes = append(res.Notes, fmt.Sprintf(
		"training pattern: static %.3f vs adaptive %.3f Gbps; after changes: static %.3f vs adaptive %.3f Gbps (static loses %.0f%%), %d switches",
		firstS, firstA, restS, restA, (1-restS/restA)*100, static.switches))
	return res
}

// Fig12 reproduces Figure 12: LF-Aurora and LF-MOCC learn and adapt to the
// changing background pattern through the slow path, while the
// no-online-adaptation variant stays degraded. MOCC reconverges faster.
func Fig12(cfg Config) Result {
	res := Result{ID: "fig12", Title: "Online adaptation under traffic dynamics",
		XLabel: "time s", YLabel: "goodput Gbps"}
	dur := cfg.dur(60 * netsim.Second)
	period := dur / 3
	variants := []adaptVariant{
		{name: "LF-Aurora", adapt: true},
		{name: "LF-MOCC", mocc: true, adapt: true},
		{name: "LF-Aurora-N-O-A", adapt: false},
	}
	for _, v := range variants {
		out := runAdaptation(cfg, v, 100*netsim.Millisecond, dur, period, 1)
		res.Series = append(res.Series, out.series(v.name))
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: mean %.3f Gbps, %d snapshot updates, %d pattern switches (batches %d, converged %d, fidelity checks %d, skipped %d)",
			v.name, out.meanGbps, out.updates, out.switches,
			out.svcStats.Batches, out.svcStats.Converged, out.svcStats.FidelityChecks, out.svcStats.SkippedByNecessity))
	}
	return res
}

// Fig14 reproduces Figure 14: the batch data delivery interval T trades
// softirq overhead (small T) against adaptation freshness (large T). The
// paper recommends T between 100 ms and 1000 ms.
func Fig14(cfg Config) Result {
	res := Result{ID: "fig14", Title: "Batch data delivery interval micro-benchmark",
		XLabel: "T ms", YLabel: "softirq share % / goodput Gbps"}
	overhead := Series{Name: "softirq-share-%"}
	goodput := Series{Name: "single-flow-goodput"}
	dur := cfg.dur(30 * netsim.Second)
	for _, T := range []netsim.Time{netsim.Millisecond, 10 * netsim.Millisecond,
		100 * netsim.Millisecond, netsim.Second, 10 * netsim.Second} {
		// Overhead: 10 adapted flows, no pattern switching needed.
		ov := runAdaptation(cfg, adaptVariant{name: "lf", adapt: true}, T,
			cfg.dur(5*netsim.Second), 0, 10)
		// Goodput: single flow across pattern changes; slow batches adapt
		// too late.
		gp := runAdaptation(cfg, adaptVariant{name: "lf", adapt: true}, T,
			dur, dur/3, 1)
		tMs := float64(T) / 1e6
		overhead.X = append(overhead.X, tMs)
		overhead.Y = append(overhead.Y, ov.report.SoftShare*100)
		goodput.X = append(goodput.X, tMs)
		goodput.Y = append(goodput.Y, gp.meanGbps)
		res.Notes = append(res.Notes, fmt.Sprintf("T=%gms: softirq %.1f%%, goodput %.3f Gbps, %d updates",
			tMs, ov.report.SoftShare*100, gp.meanGbps, gp.updates))
	}
	res.Series = append(res.Series, overhead, goodput)
	return res
}
