package rig

import (
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// Per-ACK kernel compute costs of the classic controllers: BBR's max-filter
// update is cheap; CUBIC's cube-root window computation is the expensive
// kernel arithmetic the paper blames for CUBIC trailing the NN snapshots
// (§5.1 "the complex CUBIC function needs to be calculated").
const (
	bbrAckCost   = 1 * netsim.Microsecond
	cubicAckCost = 7 * netsim.Microsecond
)

// ackCosted charges a fixed kernel cost per ACK around an inner controller.
type ackCosted struct {
	tcp.CongestionControl
	cpu  *ksim.CPU
	cost netsim.Time
}

func (a *ackCosted) OnAck(i tcp.AckInfo) {
	a.cpu.Charge(ksim.Kernel, a.cost)
	a.CongestionControl.OnAck(i)
}

// collector wraps the kernel fast path and mirrors each query into the
// netlink batch buffer, standing in for the paper's kernel-side data
// collector.
type collector struct {
	inner cc.Backend
	ch    *netlink.Channel
	eng   *netsim.Engine
}

func (b *collector) Query(state []float64, reply func(action float64)) {
	b.inner.Query(state, func(a float64) {
		b.ch.Push(core.EncodeSample(core.Sample{
			Input: append([]float64(nil), state...),
			Aux:   []float64{a},
			At:    b.eng.Now(),
		}))
		reply(a)
	})
}

// SchemeArgs is what a scheme's controllers are built from.
type SchemeArgs struct {
	Net      *nn.Network // the policy network Scheme.Model names; nil for classic controllers
	Interval netsim.Time // CCP exchange interval; 0 = per-ACK
	Flows    int         // the run's flow count (lf-dummy splits the NIC's pacing)
}

// Scheme is one way of realizing congestion control on the dumbbell's
// sender: the single table behind the figures' bars and lfsim -cc.
type Scheme struct {
	Model string // policy network it runs: "aurora", "mocc", or "" for the classic controllers
	// LF schemes query a kernel snapshot: the caller deploys Net's snapshot
	// with Dumbbell.Deploy before adding flows.
	LF  bool
	new func(d *Dumbbell, a SchemeArgs, flow netsim.FlowID) tcp.CongestionControl
}

// AddFlows starts a.Flows flows under scheme s.
func (d *Dumbbell) AddFlows(s Scheme, a SchemeArgs) {
	for i := 0; i < a.Flows; i++ {
		d.AddFlow(func(flow netsim.FlowID) tcp.CongestionControl { return s.new(d, a, flow) })
	}
}

// initRate is every MI-driven controller's starting pacing rate.
const initRate = 500e6

// Schemes maps scheme names (lfsim -cc values) to their realization.
var Schemes = map[string]Scheme{
	"bbr": {new: func(d *Dumbbell, _ SchemeArgs, _ netsim.FlowID) tcp.CongestionControl {
		return &ackCosted{cc.NewBBR(), d.Sender.CPU, bbrAckCost}
	}},
	"cubic": {new: func(d *Dumbbell, _ SchemeArgs, _ netsim.FlowID) tcp.CongestionControl {
		return &ackCosted{cc.NewCubic(), d.Sender.CPU, cubicAckCost}
	}},
	"lf-aurora":  {Model: "aurora", LF: true, new: newLF},
	"lf-mocc":    {Model: "mocc", LF: true, new: newLF},
	"lf-dummy":   {Model: "aurora", LF: true, new: newDummy},
	"ccp-aurora": {Model: "aurora", new: newCCP},
	"ccp-mocc":   {Model: "mocc", new: newCCP},
}

// newLF drives the flow from the deployed snapshot (lf_query_model once per
// monitor interval). With a slow path attached, every query is also
// collected into its batch buffer.
func newLF(d *Dumbbell, _ SchemeArgs, flow netsim.FlowID) tcp.CongestionControl {
	var b cc.Backend = core.NewFlowBackend(d.Dep.Core, flow)
	if d.Dep.Chan != nil {
		b = &collector{inner: b, ch: d.Dep.Chan, eng: d.Sender.Eng}
	}
	return cc.NewMIController(d.Sender.Eng, b, initRate)
}

// newDummy is the same snapshot plumbing with generated code edited to
// always emit full rate (paper §5.1): a constant +1 action at kernel
// inference cost. "Line rate" in the scaled testbed is the CPU-bound
// ~1.6 Gbps the paper's 100 Gbps NICs correspond to (DESIGN.md §1); N flows
// share the NIC's pacing.
func newDummy(d *Dumbbell, a SchemeArgs, _ netsim.FlowID) tcp.CongestionControl {
	macs := d.Dep.Core.Active().Program().MACs()
	b := &cc.DirectBackend{Policy: cc.PolicyFunc(func([]float64) float64 { return 1 }),
		CPU: d.Sender.CPU, Cost: ksim.InferCost(d.Costs.KernelInferPerMAC, macs), Cat: ksim.Kernel}
	m := cc.NewMIController(d.Sender.Eng, b, initRate)
	m.MaxRate = 1_600_000_000 / int64(a.Flows)
	return m
}

// newCCP runs the policy in userspace behind a CCP-style exchange.
func newCCP(d *Dumbbell, a SchemeArgs, _ netsim.FlowID) tcp.CongestionControl {
	b := &cc.CCPBackend{Eng: d.Sender.Eng, CPU: d.Sender.CPU, Costs: d.Costs,
		Policy: cc.NewNNPolicy(a.Net), Interval: a.Interval, UserMACs: a.Net.MACs()}
	return cc.NewMIController(d.Sender.Eng, b, initRate)
}
