package experiments

import (
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/sched"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// Fig15 reproduces Figure 15: the per-prediction latency CDF of the three
// FFNN deployments. LF-FFNN answers in-kernel at integer-inference cost;
// char-FFNN and netlink-FFNN pay a round trip each.
func Fig15(cfg Config) Result {
	res := Result{ID: "fig15", Title: "Flow-size prediction latency CDF",
		XLabel: "latency µs", YLabel: "CDF"}
	eng := netsim.NewEngine()
	costs := ksim.DefaultCosts()
	net := trainedFFNN(cfg)
	// The kernel arm queries a deployed snapshot like fig16's; its latency
	// depends only on the MACs and the jitter stream.
	coreCfg := core.DefaultConfig()
	lf := rig.Deploy(eng, nil, costs, coreCfg, rig.Build(net, coreCfg.Quant, "ffnn"), obs.Scope{}).Core
	lf.SetFlowCache(false)

	preds := []struct {
		name   string
		decide rig.Decider
	}{
		{"LF-FFNN", rig.KernelDecider(lf, 1, sched.PrioOf(1e6), sched.Decode)},
		{"char-FFNN", rig.UserDecider(eng, costs, net, rig.CharDev, 2, sched.Decode)},
		{"netlink-FFNN", rig.UserDecider(eng, costs, net, rig.Netlink, 2, sched.Decode)},
	}
	fm := sched.NewFeatureModel(cfg.Seed + 9)
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(cfg.Seed + 10))
	n := cfg.count(2000)
	for _, pr := range preds {
		d := stats.NewDist(n)
		for i := 0; i < n; i++ {
			lat := pr.decide(0, fm.Features(dist.Sample(r)), func(int) {})
			d.Add(float64(lat) / 1e3)
		}
		eng.Run()
		s := Series{Name: pr.name}
		for _, p := range d.CDF() {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.F)
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: mean %.2f µs, p99 %.2f µs",
			pr.name, d.Mean(), d.Quantile(0.99)))
	}
	return res
}

// trainedFFNN returns an FFNN fitted on the undrifted web-search feature
// distribution.
func trainedFFNN(cfg Config) *nn.Network {
	net := sched.NewFFNN(cfg.Seed)
	fm := sched.NewFeatureModel(cfg.Seed + 1)
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(cfg.Seed + 2))
	var feats [][]float64
	var sizes []int64
	for i := 0; i < 512; i++ {
		s := dist.Sample(r)
		sizes = append(sizes, s)
		feats = append(feats, fm.Features(s))
	}
	sched.Train(net, feats, sizes, 600)
	return net
}

// labelUser implements the LiteFlow userspace interfaces for the supervised
// models: the adapter fits the labels each sample carries in Aux — the FFNN's
// [Target(size)] from completed flows, the LB MLP's one-hot best path from
// the congestion oracle — on the features observed in the batch.
type labelUser struct {
	net      *nn.Network
	opt      nn.Optimizer
	lastLoss float64
}

func newLabelUser(net *nn.Network) *labelUser {
	return &labelUser{net: net, opt: nn.NewAdam(1e-2), lastLoss: 1}
}

func (u *labelUser) Freeze() *nn.Network          { return u.net }
func (u *labelUser) Stability() float64           { return u.lastLoss }
func (u *labelUser) Infer(in []float64) []float64 { return u.net.Infer(in) }

// OutputSize and InferBatch implement core.BatchEvaluator.
func (u *labelUser) OutputSize() int                         { return u.net.OutputSize() }
func (u *labelUser) InferBatch(xs [][]float64, ys []float64) { u.net.InferBatch(xs, ys) }

func (u *labelUser) Adapt(batch []core.Sample) {
	x := make([][]float64, 0, len(batch))
	y := make([][]float64, 0, len(batch))
	for _, s := range batch {
		if len(s.Aux) < u.net.OutputSize() {
			continue
		}
		x = append(x, s.Input)
		y = append(y, s.Aux[:u.net.OutputSize()])
	}
	if len(x) == 0 {
		return
	}
	for e := 0; e < 30; e++ {
		u.lastLoss = nn.TrainBatch(u.net, u.opt, x, y, 5)
	}
}

// batchIntervalFor scales the slow path's T to the workload rather than
// wall-clock: batch delivery must complete several adaptation rounds within
// the arrival span.
func batchIntervalFor(flows []workload.FlowSpec) netsim.Time {
	T := flows[len(flows)-1].At / 20
	if T < 5*netsim.Millisecond {
		T = 5 * netsim.Millisecond
	}
	if T > 100*netsim.Millisecond {
		T = 100 * netsim.Millisecond
	}
	return T
}

// adaptiveCoreConfig is the core config of every experiment with a live slow
// path: outputs in [0,1], and a short stability window with a loose tolerance
// so the gate reacts within a few batches of a change (self-supervised and
// small-batch losses are noisy).
func adaptiveCoreConfig() core.Config {
	c := core.DefaultConfig()
	c.OutMin, c.OutMax = 0, 1
	c.StabilityWindow = 2
	c.StabilityTolerance = 1.0
	return c
}

// fctBuckets accumulates FCT per flow class, with a separate post-drift view
// (the adaptation comparison only differs after the workload shifts).
type fctBuckets struct {
	dists [3]*stats.Dist
	post  [3]*stats.Dist
	note  string
}

func newFCTBuckets() *fctBuckets {
	b := &fctBuckets{}
	for c := 0; c < 3; c++ {
		b.dists[c] = stats.NewDist(256)
		b.post[c] = stats.NewDist(256)
	}
	return b
}

func (f *fctBuckets) add(size int64, fct netsim.Time) {
	f.dists[workload.ClassOf(size)].Add(float64(fct) / 1e3) // µs
}

// row renders the per-class mean series and the mean/median/count note that
// fig16 and fig17 print per scheme.
func (f *fctBuckets) row(name string) (Series, string) {
	s := Series{Name: name}
	for c := 0; c < 3; c++ {
		s.X = append(s.X, float64(c))
		s.Y = append(s.Y, f.dists[c].Mean())
	}
	return s, fmt.Sprintf("%s: mean short %.0fµs mid %.0fµs long %.0fµs | median %.0f/%.0f/%.0fµs (n=%d/%d/%d)",
		name, f.dists[0].Mean(), f.dists[1].Mean(), f.dists[2].Mean(),
		f.dists[0].Median(), f.dists[1].Median(), f.dists[2].Median(),
		f.dists[0].N(), f.dists[1].N(), f.dists[2].N())
}

func (f *fctBuckets) addPost(size int64, fct netsim.Time) {
	f.post[workload.ClassOf(size)].Add(float64(fct) / 1e3)
}

// Fig16 reproduces Figure 16: average FCT by flow class on the 2×2
// spine–leaf fabric (32 hosts, DCTCP, strict-priority queues) for the four
// FFNN deployments. Ordering: LF-FFNN < char < netlink, and the frozen
// LF-FFNN-N-O-A loses the most once the workload's feature mapping drifts.
func Fig16(cfg Config) Result {
	res := Result{ID: "fig16", Title: "Flow scheduling FCT by class (µs)",
		XLabel: "class (0=short 1=mid 2=long)", YLabel: "avg FCT µs"}
	numFlows := cfg.count(4000)
	for _, name := range []string{"LF-FFNN", "char-FFNN", "netlink-FFNN", "LF-FFNN-N-O-A"} {
		buckets := runFig16Scheme(cfg, name, numFlows)
		s, note := buckets.row(name)
		res.Series = append(res.Series, s)
		note += fmt.Sprintf(" | post-drift median %.0f/%.0f/%.0fµs",
			buckets.post[0].Median(), buckets.post[1].Median(), buckets.post[2].Median())
		if buckets.note != "" {
			note += " [" + buckets.note + "]"
		}
		res.Notes = append(res.Notes, note)
	}
	return res
}

// runFig16Scheme runs one deployment over the identical drifting workload.
func runFig16Scheme(cfg Config, name string, numFlows int) *fctBuckets {
	isLF, isNOA := name == "LF-FFNN", name == "LF-FFNN-N-O-A"
	isChar, isNetlink := name == "char-FFNN", name == "netlink-FFNN"
	opts := topo.DefaultSpineLeafOpts(16) // 32 hosts
	opts.UsePrioQueues = true
	// Server-class hosts for the 10G fabric. One partition: every host
	// queries the one core, which schedules on the root view.
	sl := rig.NewFabric(netsim.NewEngine(), opts, 32)
	eng := sl.Eng
	costs := ksim.DefaultCosts()

	// Identical workload for every scheme.
	r := rand.New(rand.NewSource(cfg.Seed + 20))
	flows := workload.Generate(r, numFlows, len(sl.Hosts), 0.55, workload.WebSearch())
	fm := sched.NewFeatureModel(cfg.Seed + 21)
	driftAt := flows[numFlows/2].At // feature mapping drifts mid-run
	batchT := batchIntervalFor(flows)

	net := trainedFFNN(cfg)
	user := newLabelUser(net)

	horizon := flows[len(flows)-1].At + 20*netsim.Second

	// decide resolves one flow's priority under the scheme's deployment; a
	// failed kernel query tags the flow as a 1 MB one.
	var decide rig.Decider
	var dep *rig.Deployment
	switch {
	case isLF || isNOA:
		coreCfg := adaptiveCoreConfig()
		dep = rig.Deploy(eng, nil, costs, coreCfg, rig.Build(net.Clone(), coreCfg.Quant, "ffnn0"), obs.Scope{})
		decide = rig.KernelDecider(dep.Core, cfg.Seed+22, sched.PrioOf(1e6), sched.Decode)
		if isLF {
			dep.AttachSlowPath(sl.Hosts[0].CPU, user, batchT, nil)
		}
	case isChar:
		decide = rig.UserDecider(eng, costs, net, rig.CharDev, 2, sched.Decode)
	case isNetlink:
		decide = rig.UserDecider(eng, costs, net, rig.Netlink, 2, sched.Decode)
	}

	// Userspace deployments adapt their model directly (it already lives
	// in userspace); collect and retrain every batch interval.
	var userspaceBatchX [][]float64
	var userspaceBatchY []int64
	if isChar || isNetlink {
		rig.Every(eng, batchT, horizon, func() {
			if len(userspaceBatchX) > 0 {
				sched.Train(net, userspaceBatchX, userspaceBatchY, 30)
				userspaceBatchX = userspaceBatchX[:0]
				userspaceBatchY = userspaceBatchY[:0]
			}
		})
	}

	buckets := newFCTBuckets()
	for idx, fs := range flows {
		fs := fs
		flowID := netsim.FlowID(idx + 1)
		eng.At(fs.At, func() {
			if fs.At >= driftAt {
				fm.Drift = 0.15
			}
			feats := fm.Features(fs.Size)
			src := sl.Hosts[fs.Src]
			dst := sl.Hosts[fs.Dst]
			ctrl := cc.NewDCTCP()
			snd := tcp.NewSender(src, flowID, dst.ID, fs.Size, ctrl)
			snd.Prio = netsim.NumPrioBands - 1 // untagged until the prediction lands
			rcv := tcp.NewReceiver(dst, flowID, src.ID)
			if dep != nil {
				rcv.OnFIN = func(f netsim.FlowID) { dep.Core.FlowFinished(f) }
			}
			snd.OnComplete = func(fct netsim.Time) {
				buckets.add(fs.Size, fct)
				if fs.At >= driftAt {
					buckets.addPost(fs.Size, fct)
				}
				// Completed flows yield labeled training data.
				if isLF {
					dep.Chan.Push(core.EncodeSample(core.Sample{
						Input: feats, Aux: []float64{sched.Target(fs.Size)}, At: eng.Now(),
					}))
				}
				if isChar || isNetlink {
					userspaceBatchX = append(userspaceBatchX, feats)
					userspaceBatchY = append(userspaceBatchY, fs.Size)
				}
			}
			// FLUX tags at flow admission: the flow starts once the
			// prediction lands, so deployment latency directly delays
			// every flow's first packet.
			decide(flowID, feats, func(prio int) {
				snd.Prio = prio
				snd.Start()
			})
		})
	}

	eng.RunUntil(horizon)
	dep.Stop()
	if isLF {
		st := dep.Svc.Stats()
		buckets.note = fmt.Sprintf("batches %d converged %d checks %d updates %d skipped %d lastFid %.3f",
			st.Batches, st.Converged, st.FidelityChecks, st.Updates, st.SkippedByNecessity, st.LastFidelity)
	}
	return buckets
}
