package rig

import (
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
)

// Decider makes one per-flow decision (a priority band, a path) from the
// flow's features and delivers it through reply after the deployment's
// latency, which it returns (Figure 15 plots it). The paper's §5.2–§5.3
// applications run one model either in the kernel (KernelDecider) or in
// userspace behind a round trip (UserDecider); an application supplies only
// decode, from model outputs to its decision.
type Decider func(flow netsim.FlowID, features []float64, reply func(decision int)) netsim.Time

// Transport is the userspace arm's kernel↔user exchange.
type Transport int

// Userspace transports the paper compares against.
const (
	CharDev Transport = iota
	Netlink
)

// KernelDecider answers through the core's active snapshot (lf_query_model;
// flow keys the core's flow cache when it is on): inference cost plus uniform
// [0, cost] cache/pipeline jitter drawn from seed, charged to the core's CPU
// like every query. With no snapshot, or when the query fails, it replies
// fallback at once, with zero latency and no jitter draw.
func KernelDecider(c *core.Core, seed int64, fallback int, decode func(out []float64) int) Decider {
	jit := rand.New(rand.NewSource(seed))
	var in, out []int64
	var outF []float64
	return func(flow netsim.FlowID, features []float64, reply func(int)) netsim.Time {
		m := c.Active()
		if m == nil {
			reply(fallback)
			return 0
		}
		prog := m.Program()
		if len(in) != prog.InputSize() || len(out) != prog.OutputSize() {
			in, out = make([]int64, prog.InputSize()), make([]int64, prog.OutputSize())
			outF = make([]float64, len(out))
		}
		prog.QuantizeInput(features, in)
		if err := c.QueryModel(flow, in, out); err != nil {
			reply(fallback)
			return 0
		}
		for i, v := range out {
			outF[i] = float64(v) / float64(prog.OutputScale)
		}
		cost := ksim.InferCost(c.Costs.KernelInferPerMAC, prog.MACs())
		lat := cost + netsim.Time(jit.Int63n(int64(cost)+1))
		d := decode(outF)
		c.Eng.After(lat, func() { reply(d) })
		return lat
	}
}

// UserDecider runs net in userspace behind a per-decision exchange over tr:
// a round trip plus userspace inference, with uniform [0, one-way] scheduling
// jitter drawn from seed. It ignores the flow ID; userspace holds one model.
func UserDecider(eng *netsim.Engine, costs ksim.Costs, net *nn.Network, tr Transport, seed int64, decode func(out []float64) int) Decider {
	oneWay := costs.CharDevLatency
	if tr == Netlink {
		oneWay = costs.NetlinkLatency
	}
	infer := ksim.InferCost(costs.UserInferPerMAC, net.MACs())
	jit := rand.New(rand.NewSource(seed))
	out := make([]float64, net.OutputSize())
	return func(_ netsim.FlowID, features []float64, reply func(int)) netsim.Time {
		lat := 2*oneWay + infer + netsim.Time(jit.Int63n(int64(oneWay)+1))
		net.Forward(features, out)
		d := decode(out)
		eng.After(lat, func() { reply(d) })
		return lat
	}
}
