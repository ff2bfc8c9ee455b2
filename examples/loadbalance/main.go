// Load balancing example (paper §5.3): an MLP selects the spine for each
// flow on a 2×2 spine–leaf fabric using per-path congestion features (ECN
// mark fractions, smoothed RTTs), enforced with XPath-style explicit paths.
// ECMP hashing is the baseline. An adversarial elephant flow congests one
// spine; the learned selector routes around it.
//
// Run: go run ./examples/loadbalance
package main

import (
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/lb"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

func run(name string, useMLP bool) {
	eng := netsim.NewEngine()
	opts := topo.DefaultSpineLeafOpts(4) // 8 hosts
	opts.FabricLinkBps = 10e9            // oversubscribable fabric: one host can congest a spine
	sl := topo.BuildSpineLeaf(eng, opts)
	paths := len(sl.Spines)

	// The learned selector, trained on the congestion oracle then
	// quantized into a kernel snapshot (LF-MLP).
	net := lb.NewMLP(paths, 1)
	lb.Train(net, paths, 400, 1e-2, 1.0, 2)
	coreCfg := core.DefaultConfig()
	lf := rig.Deploy(eng, nil, ksim.DefaultCosts(), coreCfg, rig.Build(net, coreCfg.Quant, "lbmlp")).Core
	lf.SetFlowCache(false) // one query per flow: nothing to keep consistent
	kernel := rig.KernelDecider(lf, 3, 0, lb.Argmax)
	ecmp := &lb.ECMPSelector{Paths: paths}
	monitor := lb.NewPathMonitor(paths)

	// Adversary: a long-running elephant pinned through spine 0 between
	// leaves, congesting that path.
	eleSrc, eleDst := sl.Hosts[0], sl.Hosts[7]
	ele := tcp.NewSender(eleSrc, 100000, eleDst.ID, 0, tcp.NewFixedRate(9e9))
	ele.Path = sl.PathVia(eleSrc.ID, eleDst.ID, 0)
	tcp.NewReceiver(eleDst, 100000, eleSrc.ID)
	ele.Start()

	// Foreground flows between the leaves.
	r := rand.New(rand.NewSource(7))
	dist := workload.WebSearch()
	fct := stats.NewDist(256)
	var viaSpine [2]int
	const flows = 400
	t := netsim.Time(0)
	for i := 0; i < flows; i++ {
		i := i
		t += netsim.Time(r.ExpFloat64() * 2e6) // ~2 ms mean spacing
		size := dist.Sample(r)
		src := sl.Hosts[1+r.Intn(3)] // avoid the elephant's hosts
		dst := sl.Hosts[4+r.Intn(3)]
		flowID := netsim.FlowID(i + 1)
		eng.At(t, func() {
			ctrl := lb.NewFlowFeedback()
			snd := tcp.NewSender(src, flowID, dst.ID, size, ctrl)
			tcp.NewReceiver(dst, flowID, src.ID)
			norm := float64(size) / 1e7
			if norm > 1 {
				norm = 1
			}
			start := func(path int) {
				viaSpine[path]++
				snd.Path = sl.PathVia(src.ID, dst.ID, path)
				snd.OnComplete = func(d netsim.Time) {
					fct.Add(float64(d) / 1e3)
					ecn, avgRTT := ctrl.Stats()
					monitor.Observe(path, ecn, avgRTT)
				}
				snd.Start()
			}
			if useMLP {
				kernel(flowID, monitor.Features(norm), start)
			} else {
				start(ecmp.Path())
			}
		})
	}
	// The elephant never finishes; stop once every foreground flow has.
	for deadline := t + 20*netsim.Second; eng.Now() < deadline && fct.N() < flows; {
		eng.RunUntil(min(eng.Now()+100*netsim.Millisecond, deadline))
	}

	fmt.Printf("%-8s FCT mean %7.0fµs p99 %8.0fµs | spine split %d/%d | spine0 ECN %.2f spine1 ECN %.2f\n",
		name, fct.Mean(), fct.Quantile(0.99), viaSpine[0], viaSpine[1],
		monitor.ECN(0), monitor.ECN(1))
}

func main() {
	fmt.Println("load balancing on a 2×2 spine-leaf fabric with an elephant pinned to spine 0")
	run("LF-MLP", true)
	run("ECMP", false)
	fmt.Println("\nthe learned selector observes spine 0's ECN marks and shifts flows to")
	fmt.Println("spine 1; ECMP keeps hashing half the flows into the congested path (§5.3).")
}
