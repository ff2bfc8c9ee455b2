package experiments

import (
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/lb"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// Fig17 reproduces Figure 17: FCT by flow class on the 2×2 spine–leaf fabric
// (8 hosts) under LF-MLP, char-MLP, ECMP, and LF-MLP-N-O-A. Mid-run the
// fabric's ECN marking is disabled (regime shift): the frozen model goes
// blind, the adapted LF-MLP relearns to read RTT, and char-MLP additionally
// pays continuous cross-space monitoring overhead.
func Fig17(cfg Config) Result {
	res := Result{ID: "fig17", Title: "Load balancing FCT by class (µs)",
		XLabel: "class (0=short 1=mid 2=long)", YLabel: "avg FCT µs"}
	numFlows := cfg.count(3000)
	for _, name := range []string{"LF-MLP", "char-MLP", "ECMP", "LF-MLP-N-O-A"} {
		s, note := runFig17Scheme(cfg, name, numFlows).row(name)
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, note)
	}
	return res
}

func runFig17Scheme(cfg Config, name string, numFlows int) *fctBuckets {
	opts := topo.DefaultSpineLeafOpts(4) // 8 hosts
	// A congestible fabric with asymmetric path quality: spine 0's links
	// run degraded at 3 Gbps (a part-failed LAG, a common data-center
	// pathology), spine 1 at the full 10 Gbps. Intelligent path selection
	// matters exactly when paths are unequal; under symmetric paths ECMP
	// is already near-optimal and the comparison is vacuous.
	opts.FabricLinkBps = 10e9
	// One partition: every host queries the one core, which schedules on the
	// root view.
	sl := rig.NewFabric(netsim.NewEngine(), opts, 8)
	eng := sl.Eng
	for _, leaf := range sl.Leaves {
		leaf.Port(topo.SpineIDBase).SetRate(3e9)
	}
	for l := range sl.Leaves {
		sl.Spines[0].Port(topo.LeafIDBase + l).SetRate(3e9)
	}
	costs := ksim.DefaultCosts()
	paths := len(sl.Spines)

	r := rand.New(rand.NewSource(cfg.Seed + 30))
	flows := workload.Generate(r, numFlows, len(sl.Hosts), 0.15, workload.WebSearch())
	shiftAt := flows[numFlows/2].At
	batchT := batchIntervalFor(flows)

	// The userspace model, trained in the ECN-visible regime.
	net := lb.NewMLP(paths, cfg.Seed+31)
	lb.Train(net, paths, 400, cfg.Seed+32)
	user := newLabelUser(net)

	monitor := lb.NewPathMonitor(paths)

	deadline := flows[len(flows)-1].At + 60*netsim.Second

	var dep *rig.Deployment
	var decide rig.Decider // nil under ECMP
	ecmp := &lb.ECMPSelector{Paths: paths}
	var charBatch []lb.Sample // char-MLP's userspace adaptation buffer

	switch name {
	case "LF-MLP", "LF-MLP-N-O-A":
		coreCfg := adaptiveCoreConfig()
		dep = rig.Deploy(eng, nil, costs, coreCfg, rig.Build(net.Clone(), coreCfg.Quant, "lbmlp0"), obs.Scope{})
		// Per-flow decisions are one-shot: the flow cache adds nothing.
		dep.Core.SetFlowCache(false)
		decide = rig.KernelDecider(dep.Core, cfg.Seed+33, 0, lb.Argmax)
		if name == "LF-MLP" {
			dep.AttachSlowPath(sl.Hosts[0].CPU, user, batchT, nil)
		}
	case "char-MLP":
		// Selector latency only; the per-host cost is the continuous
		// kernel→user path-state sync every host pays (the overhead that
		// drops char-MLP below plain ECMP in the paper).
		decide = rig.UserDecider(eng, costs, net, rig.CharDev, 4, lb.Argmax)
		for _, h := range sl.Hosts {
			h := h
			rig.Every(eng, 200*netsim.Microsecond, deadline, func() {
				h.CPU.Charge(ksim.SoftIRQ, costs.CrossSpace)
				h.CPU.Charge(ksim.Kernel, costs.CharDevPerMsg)
			})
		}
		// char-MLP adapts its userspace model directly.
		opt := nn.NewAdam(1e-2)
		rig.Every(eng, batchT, deadline, func() {
			if len(charBatch) == 0 {
				return
			}
			x := make([][]float64, len(charBatch))
			y := make([][]float64, len(charBatch))
			for i, s := range charBatch {
				x[i] = s.Features
				t := make([]float64, paths)
				t[s.Best] = 1
				y[i] = t
			}
			for e := 0; e < 30; e++ {
				nn.TrainBatch(net, opt, x, y, 5)
			}
			charBatch = charBatch[:0]
		})
	}

	// Regime shift: disable ECN marking fabric-wide. Congestion then shows
	// up as RTT inflation instead of marks.
	disable := func(l *netsim.Link) {
		if l == nil {
			return
		}
		if q, ok := l.Queue().(*netsim.DropTail); ok {
			q.MarkBytes = 0
		}
	}
	eng.At(shiftAt, func() {
		for _, leaf := range sl.Leaves {
			for hid := range sl.Hosts {
				disable(leaf.Port(hid))
			}
			for s := range sl.Spines {
				disable(leaf.Port(topo.SpineIDBase + s))
			}
		}
		for _, spine := range sl.Spines {
			for l := range sl.Leaves {
				disable(spine.Port(topo.LeafIDBase + l))
			}
		}
		for _, h := range sl.Hosts {
			disable(h.Egress())
		}
	})

	buckets := newFCTBuckets()
	for idx, fs := range flows {
		fs := fs
		flowID := netsim.FlowID(idx + 1)
		eng.At(fs.At, func() {
			src := sl.Hosts[fs.Src]
			dst := sl.Hosts[fs.Dst]
			sizeNorm := float64(fs.Size) / 1e7
			if sizeNorm > 1 {
				sizeNorm = 1
			}
			feats := monitor.Features(sizeNorm)
			ctrl := lb.NewFlowFeedback()
			snd := tcp.NewSender(src, flowID, dst.ID, fs.Size, ctrl)
			tcp.NewReceiver(dst, flowID, src.ID)

			start := func(path int) {
				snd.Path = sl.PathVia(src.ID, dst.ID, path)
				snd.OnComplete = func(fct netsim.Time) {
					buckets.add(fs.Size, fct)
					ecnFrac, avgRTT := ctrl.Stats()
					monitor.Observe(path, ecnFrac, avgRTT)
					// Feed the adaptation loop with oracle-labeled data.
					best := lb.BestPath(monitor.Features(sizeNorm), paths)
					switch name {
					case "LF-MLP":
						oneHot := make([]float64, paths)
						oneHot[best] = 1
						dep.Chan.Push(core.EncodeSample(core.Sample{Input: feats, Aux: oneHot, At: eng.Now()}))
					case "char-MLP":
						charBatch = append(charBatch, lb.Sample{Features: feats, Best: best})
					}
				}
				snd.Start()
			}

			if decide != nil {
				decide(0, feats, start)
			} else {
				start(ecmp.Path())
			}
		})
	}

	// Run until the workload drains (or a generous cap).
	done := func() int { return buckets.dists[0].N() + buckets.dists[1].N() + buckets.dists[2].N() }
	for eng.Now() < deadline && done() < numFlows {
		eng.RunUntil(eng.Now() + netsim.Second)
	}
	dep.Stop()
	return buckets
}
