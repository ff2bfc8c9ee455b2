// Congestion control example: the paper's headline scenario. One flow on a
// congested 1 Gbps / 10 ms-RTT dumbbell, controlled by the same Aurora
// policy network deployed three ways:
//
//   - LF-Aurora: integer snapshot in the (simulated) kernel via LiteFlow
//   - CCP-Aurora-100ms: userspace inference, 100 ms exchange interval
//   - kernel BBR as the classic baseline
//
// The kernel snapshot matches fine-grained control without the cross-space
// overhead — the core claim of the paper's Figure 11.
//
// Run: go run ./examples/congestion
package main

import (
	"fmt"

	liteflow "github.com/liteflow-sim/liteflow"
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/rig"
)

// runScheme runs one entry of the scheme table (the one fig11 and lfsim -cc
// use) on the congested testbed rig: bursty background UDP keeps the
// bottleneck congested and moving (paper §2.2 setup; mean 0.1 Gbps).
func runScheme(name, key string, args rig.SchemeArgs) float64 {
	d := rig.NewDumbbell(rig.DumbbellOpts{Background: rig.BurstyUDP})
	sch := rig.Schemes[key]
	if sch.LF {
		cfg := liteflow.DefaultConfig()
		cfg.FlowCacheTimeout = 0
		d.Deploy(cfg, rig.Build(args.Net, cfg.Quant, "aurora"))
	}
	args.Flows = 1
	d.AddFlows(sch, args)
	d.Run(3*liteflow.Second, 5*liteflow.Second)
	g := float64(d.Delivered(0)*8) / 5e9
	fmt.Printf("%-18s %6.3f Gbps\n", name, g)
	return g
}

func main() {
	fmt.Println("pretraining the Aurora policy network (32/16 hidden units)…")
	aurora := cc.NewAuroraNet(1)
	cc.Pretrain(aurora, 400, 2)

	fmt.Println("\ngoodput of one flow on the congested testbed:")
	lfG := runScheme("LF-Aurora", "lf-aurora", rig.SchemeArgs{Net: aurora})
	ccpG := runScheme("CCP-Aurora-100ms", "ccp-aurora",
		rig.SchemeArgs{Net: aurora, Interval: 100 * liteflow.Millisecond})
	runScheme("kernel BBR", "bbr", rig.SchemeArgs{})

	fmt.Printf("\nLF-Aurora outperforms CCP-Aurora-100ms by %.1f%% — the same NN,\n"+
		"deployed where inference belongs (paper Figure 11).\n", (lfG/ccpG-1)*100)
}
