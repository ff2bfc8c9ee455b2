package main

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// adapt-slowpath: one LF-Aurora-α flow with the full deployment loop. The
// bottleneck is cut to 100 Mbps so the packet path is about ten times lighter
// than in dumbbell-cc, samples cross netlink every 1 ms, and the background
// pattern switches every 200 ms so the necessity gate keeps opening: the slow
// path (netlink, nn training, quantize, codegen, install) owns the host time.
// These sizes were tuned once so that netlink.deliver_ms is over half of the
// run, and are frozen.
const (
	adaptLineBps      = 100e6
	adaptBatchEvery   = netsim.Millisecond
	adaptSwitchPeriod = 200 * netsim.Millisecond
	adaptInitAlpha    = 0.28
)

var adaptBackground = []int64{70e6, 10e6, 40e6}

type adaptSizes struct {
	pretrain     int
	warmup, span netsim.Time
}

func adaptSize(quick bool) adaptSizes {
	if quick {
		return adaptSizes{pretrain: 30, warmup: 100 * netsim.Millisecond, span: 400 * netsim.Millisecond}
	}
	return adaptSizes{pretrain: 300, warmup: 500 * netsim.Millisecond, span: 3 * netsim.Second}
}

// alphaUser is the user side of the three slow-path interfaces for the
// α-output model — the recipe of the adaptation figures (fig12, fig14):
// self-supervised regression toward the achievable rate fraction seen in each
// window of monitor intervals, trained to convergence.
type alphaUser struct {
	net      *nn.Network
	opt      nn.Optimizer
	cpu      *ksim.CPU
	tr       *tracer
	lastLoss float64
	adapts   int64
	pending  []core.Sample
}

// Freeze is where the service starts a snapshot: quantize, codegen.Build and
// the netlink downcall follow in the same engine event, and the next boundary
// the tracer sees closes the span.
func (a *alphaUser) Freeze() *nn.Network {
	a.tr.beginOpen(spBuild)
	return a.net
}

func (a *alphaUser) Stability() float64 { return a.lastLoss }

func (a *alphaUser) Infer(in []float64) []float64 {
	a.tr.begin(spInfer, false)
	out := a.net.Infer(in)
	a.tr.end()
	return out
}

// Adapt takes samples whose Aux is [alpha, deliveredFrac, latRatio, lossFrac].
func (a *alphaUser) Adapt(batch []core.Sample) {
	a.tr.begin(spAdapt, false)
	defer a.tr.end()
	a.pending = append(a.pending, batch...)
	if len(a.pending) < 8 {
		return // T = 1 ms delivers 0–1 samples per flush; wait for a window
	}
	batch, a.pending = a.pending, nil
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
	alpha, delivered, latRatio, lossFrac = alpha/n, delivered/n, latRatio/n, lossFrac/n

	// Congested or under-delivering: track the delivered fraction down with
	// headroom. Clean: probe multiplicatively.
	target := alpha*1.25 + 0.02
	if lossFrac > 0.005 || latRatio > 0.2 || delivered < alpha*0.85 {
		target = delivered * 0.85
	}
	target = min(max(target, 0.02), 1)
	y := make([][]float64, len(x))
	for i := range y {
		y[i] = []float64{target}
	}
	var loss float64
	epochs := 0
	for ; epochs < 300; epochs++ {
		if loss = nn.TrainBatch(a.net, a.opt, x, y, 5); loss < 2e-4 {
			break
		}
	}
	a.lastLoss = loss
	a.adapts++
	// Userspace training compute: epochs × batch × about 3 passes of MACs.
	a.cpu.Charge(ksim.User, ksim.InferCost(1, a.net.MACs())*netsim.Time(3*(epochs+1)*len(x)))
}

type adaptState struct {
	net *nn.Network
	mod *codegen.Module
}

// adaptSetup pretrains the α model for the starting pattern (70 Mbps of
// background on the 100 Mbps line, so α* ≈ 0.28) and builds its first
// snapshot.
func adaptSetup(seed int64, quick bool) (any, error) {
	net := cc.NewAuroraAlphaNet(seed + 1)
	cc.PretrainAlpha(net, adaptInitAlpha, adaptSize(quick).pretrain, seed+3)
	mod, err := codegen.Build(quant.Quantize(net, core.DefaultConfig().Quant), "alpha0")
	if err != nil {
		return nil, fmt.Errorf("first snapshot: %w", err)
	}
	return &adaptState{net: net, mod: mod}, nil
}

func adaptRep(state any, e *env) (*repOut, error) {
	st := state.(*adaptState)
	sz := adaptSize(e.quick)
	opts := topo.TestbedOpts(1)
	opts.BottleneckBps = adaptLineBps
	b := newBell(opts, obs.Scope{}, e.tr)
	snd, rcv := b.d.Senders[0], b.d.Receivers[0]

	udp := tcp.NewUDPSource(b.d.UDPHost, 9999, rcv.ID, adaptBackground[0])
	udp.Start()
	defer udp.Stop()
	sw := workload.NewPatternSwitcher(b.eng, udp, adaptSwitchPeriod, adaptBackground, e.seed+7)
	sw.StartAt(0) // the pattern the model was trained for
	defer sw.Stop()

	// Long-lived CC flows disable the flow cache so snapshot updates take
	// effect mid-flow; a short stability window with a loose tolerance reacts
	// within a few batches of a pattern change.
	cfg := core.DefaultConfig()
	cfg.OutMin, cfg.OutMax = 0, 1
	cfg.FlowCacheTimeout = 0
	cfg.StabilityWindow = 2
	cfg.StabilityTolerance = 1.0
	lf := core.NewCore(b.eng, snd.CPU, b.costs, cfg)
	lf.SetFlowCache(false)
	if _, err := lf.RegisterModel(st.mod); err != nil {
		return nil, err
	}

	// Every rep tunes its own copy of the pretrained model.
	user := &alphaUser{net: st.net.Clone(), opt: nn.NewAdam(1e-2), cpu: snd.CPU, tr: e.tr, lastLoss: 1}
	ch := netlink.NewChannel(b.eng, snd.CPU, b.costs, nil)
	svc := core.NewSlowPath(lf, ch, user, user, user)
	if e.tr != nil {
		ch.SetDeliver(func(batch []netlink.Message) {
			e.tr.begin(spDeliver, false)
			svc.HandleBatch(batch)
			e.tr.end()
		})
	}
	svc.Start(adaptBatchEvery)

	const flow = netsim.FlowID(1)
	var backend cc.Backend = core.NewFlowBackend(lf, flow)
	if e.tr != nil {
		backend = &tapBackend{inner: backend, tr: e.tr}
	}
	ac := cc.NewAlphaController(b.eng, backend, opts.BottleneckBps, adaptInitAlpha)
	ac.OnState = func(state []float64, alpha float64, mi cc.MISummary) {
		dur := mi.End - mi.Start
		if dur <= 0 {
			return
		}
		delivered := float64(mi.AckedBytes) * 8 / (float64(dur) / 1e9) / float64(opts.BottleneckBps)
		latRatio := 0.0
		if mi.MinRTT > 0 && mi.MinRTT < 1<<62 && mi.AvgRTT > 0 {
			latRatio = float64(mi.AvgRTT)/float64(mi.MinRTT) - 1
		}
		lossFrac := 0.0
		if mi.AckedBytes+mi.LostBytes > 0 {
			lossFrac = float64(mi.LostBytes) / float64(mi.AckedBytes+mi.LostBytes)
		}
		ch.Push(core.EncodeSample(core.Sample{
			Input: append([]float64(nil), state...),
			Aux:   []float64{alpha, delivered, latRatio, lossFrac},
			At:    b.eng.Now(),
		}))
	}
	var ctrl tcp.CongestionControl = ac
	if e.tr != nil {
		ctrl = &tapCC{CongestionControl: ac, tr: e.tr}
	}
	s := tcp.NewSender(snd, flow, rcv.ID, 0, ctrl)
	r := tcp.NewReceiver(rcv, flow, snd.ID)
	s.Start()

	b.eng.RunUntil(sz.warmup)

	svc0, ch0, core0 := svc.Stats(), ch.Stats(), sumCores(lf)
	delivered0, segs0, mis0, adapts0, switches0 := r.UniqueBytes(), snd.Egress().TxPackets(), ac.MIs, user.adapts, sw.Switches
	retx0, timeouts0 := s.Retransmits, s.Timeouts
	b.mark()
	e.tr.startRep(e.rep)
	m := startMeter()
	b.runSlices(sz.warmup+sz.span, e)
	out := &repOut{m: m.stop(), layer: map[string]float64{}}
	e.tr.stopRep()

	ac.Stop()
	ch.StopBatching()
	lf.StopSweeper()
	lf.StopWatchdog()

	svc1, ch1 := svc.Stats(), ch.Stats()
	out.units = svc1.Samples - svc0.Samples
	updates := svc1.Updates - svc0.Updates
	switches := int64(sw.Switches - switches0)
	delivered := r.UniqueBytes() - delivered0
	segs := snd.Egress().TxPackets() - segs0

	dg := newDigest()
	dg.i64(delivered, s.Retransmits, s.Timeouts, svc1.Batches, svc1.Samples, svc1.Converged,
		svc1.FidelityChecks, svc1.Updates, svc1.SkippedByNecessity, switches, user.adapts)
	dg.f64(svc1.LastFidelity, svc1.LastStability)
	b.netsimLayer(out.layer, dg, e)
	b.cpuLayer(out.layer, dg)
	coreLayer(out.layer, dg, core0, sumCores(lf))
	l := out.layer
	flowLayer(l, segs, s.Retransmits-retx0, s.Timeouts-timeouts0, delivered, ac.MIs-mis0)
	l["netlink.msgs"] = float64(ch1.Messages - ch0.Messages)
	l["netlink.batches"] = float64(ch1.Flushes - ch0.Flushes)
	l["netlink.msgs_per_batch"] = ratio(l["netlink.msgs"], l["netlink.batches"])
	l["netlink.dropped"] = float64(ch1.Dropped - ch0.Dropped)
	deliver, adapt, infer := e.tr.total(spDeliver), e.tr.total(spAdapt), e.tr.total(spInfer)
	l["netlink.deliver_ms"] = ms(deliver.incl)
	l["nn.adapt_ms"] = ms(adapt.incl)
	l["nn.adapt_calls"] = float64(user.adapts - adapts0)
	l["nn.infer_ms"] = ms(infer.incl)
	l["core.slowpath_self_ms"] = ms(deliver.self)
	l["codegen.build_ms"] = ms(e.tr.total(spBuild).incl) // with quant.Quantize; see Freeze
	l["core.slowpath_updates"] = float64(updates)
	l["core.slowpath_skipped"] = float64(svc1.SkippedByNecessity - svc0.SkippedByNecessity)
	out.digest = dg.sum()

	out.check("updates", updates >= switches && switches > 0,
		"%d snapshot updates for %d pattern switches", updates, switches)
	out.check("undegraded", !lf.Degraded(), "core ended degraded")
	return out, nil
}
