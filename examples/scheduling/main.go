// Flow scheduling example (paper §5.2): FLUX's FFNN predicts flow sizes at
// flow admission; predicted sizes map to strict-priority bands on a 2×2
// spine–leaf fabric running DCTCP. The example contrasts the in-kernel
// LiteFlow snapshot predictor with a netlink userspace deployment and
// reports FCT by flow class.
//
// Run: go run ./examples/scheduling
package main

import (
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/sched"
	"github.com/liteflow-sim/liteflow/internal/stats"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

func run(name string, useKernel bool) {
	eng := netsim.NewEngine()
	opts := topo.DefaultSpineLeafOpts(8) // 16 hosts
	opts.UsePrioQueues = true
	sl := topo.BuildSpineLeaf(eng, opts)
	costs := ksim.DefaultCosts()

	// Train the predictor.
	net := sched.NewFFNN(1)
	fm := sched.NewFeatureModel(2)
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(3))
	var feats [][]float64
	var sizes []int64
	for i := 0; i < 512; i++ {
		s := dist.Sample(r)
		sizes = append(sizes, s)
		feats = append(feats, fm.Features(s))
	}
	sched.Train(net, feats, sizes, 600, 1e-2)

	var decide rig.Decider
	if useKernel {
		coreCfg := core.DefaultConfig()
		lf := rig.Deploy(eng, nil, costs, coreCfg, rig.Build(net, coreCfg.Quant, "ffnn")).Core
		lf.SetFlowCache(false) // one query per flow: nothing to keep consistent
		decide = rig.KernelDecider(lf, 1, sched.PrioOf(1e6), sched.Decode)
	} else {
		decide = rig.UserDecider(eng, costs, net, rig.Netlink, 2, sched.Decode)
	}

	// Workload.
	wr := rand.New(rand.NewSource(7))
	flows := workload.Generate(wr, 800, len(sl.Hosts), 0.2, opts.HostLinkBps, dist)
	dists := [3]*stats.Dist{stats.NewDist(64), stats.NewDist(64), stats.NewDist(64)}
	var predLat stats.Summary

	for idx, fs := range flows {
		fs := fs
		flowID := netsim.FlowID(idx + 1)
		eng.At(fs.At, func() {
			src, dst := sl.Hosts[fs.Src], sl.Hosts[fs.Dst]
			snd := tcp.NewSender(src, flowID, dst.ID, fs.Size, cc.NewDCTCP())
			tcp.NewReceiver(dst, flowID, src.ID)
			snd.OnComplete = func(fct netsim.Time) {
				dists[workload.ClassOf(fs.Size)].Add(float64(fct) / 1e3)
			}
			lat := decide(flowID, fm.Features(fs.Size), func(prio int) {
				snd.Prio = prio
				snd.Start()
			})
			predLat.Add(float64(lat) / 1e3)
		})
	}
	eng.RunUntil(flows[len(flows)-1].At + 20*netsim.Second)

	fmt.Printf("%-22s prediction %5.2fµs | FCT short %6.0fµs  mid %6.0fµs  long %8.0fµs\n",
		name, predLat.Mean(), dists[0].Mean(), dists[1].Mean(), dists[2].Mean())
}

func main() {
	fmt.Println("flow scheduling on a 2×2 spine-leaf fabric (16 hosts, DCTCP, 8 priority bands)")
	run("LF-FFNN (kernel)", true)
	run("netlink-FFNN (user)", false)
	fmt.Println("\nthe kernel snapshot tags flows before their first packet leaves;")
	fmt.Println("the userspace deployment pays a round trip per prediction (Figure 15/16).")
}
