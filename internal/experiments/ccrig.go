package experiments

import (
	"fmt"
	"sync"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/stats"
)

// scheme is one bar/line of the CC figures: a display name over an entry of
// the rig's scheme table.
type scheme struct {
	name     string
	key      string      // rig.Schemes key
	interval netsim.Time // CCP exchange interval; 0 = per-ACK
}

// Pretrained policy networks (deterministic). Pretraining runs once; every
// caller gets private clones because nn.Network.Forward mutates per-layer
// activation caches — sharing one instance across the parallel harness's
// concurrently running experiments would be a data race. The clones carry
// identical weights, so results are unchanged versus the shared originals.
var (
	pretrainOnce sync.Once
	auroraNet    *nn.Network
	moccNet      *nn.Network
)

func pretrainedNets() (*nn.Network, *nn.Network) {
	pretrainOnce.Do(func() {
		auroraNet = cc.NewAuroraNet(1)
		cc.Pretrain(auroraNet, 400, 2)
		moccNet = cc.NewMOCCNet(3)
		cc.Pretrain(moccNet, 400, 4)
	})
	return auroraNet.Clone(), moccNet.Clone()
}

// ccRun configures one dumbbell run.
type ccRun struct {
	scheme      scheme
	flows       int
	congested   bool // 1 Gbps bottleneck + 0.1 Gbps UDP vs 40 Gbps free path
	warmup      netsim.Time
	dur         netsim.Time
	sampleQueue bool
	// domains selects the engine (Config.Domains).
	domains int
}

// ccOut carries everything the CC figures read off a run.
type ccOut struct {
	aggGbps float64
	// windows holds 0.1 s goodput samples of flow 0 (Gbps) — Figure 1a.
	windows *stats.Dist
	// queue holds (ms, bytes) bottleneck samples — Figure 1b.
	queue *stats.TimeSeries
	// report is the sender-host mpstat snapshot over the measured period.
	report ksim.Report
}

// runCC executes one scheme on the §2.2 testbed analog (rig.Dumbbell): N
// flows between one sender and one receiver host, plus bursty background UDP
// when congested.
func runCC(r ccRun) ccOut {
	o := rig.DumbbellOpts{Domains: r.domains, FreePath: !r.congested}
	if r.congested {
		o.Background = rig.BurstyUDP
	}
	d := rig.NewDumbbell(o)

	sch := rig.Schemes[r.scheme.key]
	args := rig.SchemeArgs{Interval: r.scheme.interval, Flows: r.flows}
	aur, mocc := pretrainedNets()
	switch sch.Model {
	case "aurora":
		args.Net = aur
	case "mocc":
		args.Net = mocc
	}
	if sch.LF {
		// Shared LiteFlow core for the LF deployments (one per host, §4.2).
		cfg := core.DefaultConfig()
		cfg.FlowCacheTimeout = 0 // long-lived flows; sweeper noise unwanted
		d.Deploy(cfg, rig.Build(args.Net, cfg.Quant, sch.Model))
	}
	d.AddFlows(sch, args)

	// Flow-0 goodput windows every 100 ms (the paper measures every 0.1 s),
	// ticking in the receiver's partition, which writes the byte counts.
	win := stats.NewDist(256)
	var lastWindowBytes int64
	d.Sample(d.Receiver.Eng, 100*netsim.Millisecond, func(netsim.Time) {
		delta := d.Delivered(0) - lastWindowBytes
		lastWindowBytes = d.Delivered(0)
		win.Add(float64(delta*8) / 0.1 / 1e9) // Gbps
	})

	var queueTS *stats.TimeSeries
	if r.sampleQueue {
		queueTS = stats.NewTimeSeries(10 * netsim.Millisecond)
		// The bottleneck queue belongs to the left switch's partition.
		d.Sample(d.Topo.Bottleneck.Engine(), 10*netsim.Millisecond, func(since netsim.Time) {
			queueTS.Add(since, float64(d.Topo.QueueBytes()))
		})
	}

	d.Run(r.warmup, r.dur)

	out := ccOut{windows: win, queue: queueTS, report: d.Sender.CPU.Report()}
	secs := float64(r.dur) / 1e9
	for i := 0; i < r.flows; i++ {
		out.aggGbps += float64(d.Delivered(i)*8) / secs / 1e9
	}
	return out
}

// ccpScheme names one CCP line by its exchange interval.
func ccpScheme(key, label string, interval netsim.Time) scheme {
	suffix := "ACK"
	if interval > 0 {
		suffix = fmt.Sprintf("%dms", interval/netsim.Millisecond)
	}
	return scheme{name: label + "-" + suffix, key: key, interval: interval}
}
