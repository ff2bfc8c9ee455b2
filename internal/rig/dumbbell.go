package rig

import (
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// Background selects the UDP cross-traffic sharing the bottleneck.
type Background int

const (
	NoBackground Background = iota
	// ConstantUDP is a steady 0.1 Gbps (lfsim -congested).
	ConstantUDP
	// BurstyUDP alternates 20 and 180 Mbps every 200 ms, averaging the
	// paper's 0.1 Gbps: a constant background would let even 100 ms-stale
	// control settle into a fixed point, hiding the responsiveness penalty.
	BurstyUDP
	// SwitchedUDP moves the available bandwidth among 0.3, 0.9 and 0.6 Gbps
	// (700/100/400 Mbps of background) every SwitchPeriod, starting pinned
	// on the heavy pattern the α models are trained for; SwitchPeriod 0
	// holds that first pattern for the whole run.
	SwitchedUDP
)

// DumbbellOpts configures the §2.2 testbed analog.
type DumbbellOpts struct {
	Domains int // 0 = classic engine; ≥ 1 = partitioned engine, one tie-break family whatever the number
	// FreePath swaps the 1 Gbps / 150 KB bottleneck for a 40 Gbps / 4 MB
	// one, so hosts rather than the network bound throughput.
	FreePath     bool
	Background   Background
	SwitchPeriod netsim.Time
	SwitchSeed   int64
	// Faults (zero value = none) builds a deterministic injector seeded with
	// FaultSeed; its CPU spikes land on the sender host, where the fast path
	// and the slow path both live.
	Faults    fault.Profile
	FaultSeed int64
	Scope     obs.Scope // links, CPUs, core and slow path export under it
	// Flight, when non-nil, samples Scope's registry every millisecond.
	Flight *obs.FlightRecorder
}

// Dumbbell is one sender host and one receiver host (both 4-core) across one
// bottleneck, with N flows between them. Everything that drives the sender —
// congestion controllers, the LiteFlow core, the slow path, fault injection —
// lives in the sender host's partition; on a classic engine every partition
// view aliases the one engine.
type Dumbbell struct {
	Eng              *netsim.Engine
	Topo             *topo.Dumbbell
	Sender, Receiver *tcp.Host
	BottleneckBps    int64
	Costs            ksim.Costs
	Scope            obs.Scope                 // the caller's, bound to the sender's partition
	Faults           *fault.Injector           // nil without an active profile
	Switcher         *workload.PatternSwitcher // nil unless SwitchedUDP with a period
	Dep              *Deployment               // nil until Deploy
	Senders          []*tcp.Sender
	// OnDeliver, when set, sees every delivery inside the measured window
	// (flow is 0-based; since is the time since the window opened). It runs
	// in the receiver's partition.
	OnDeliver func(flow, n int, since netsim.Time)

	opts      DumbbellOpts
	stops     []func()
	delivered []int64
	measuring bool
	warmup    netsim.Time
}

// NewDumbbell builds the testbed up to and including background traffic.
func NewDumbbell(o DumbbellOpts) *Dumbbell {
	eng := newEngine(o.Domains)
	to := topo.TestbedOpts(1)
	if o.FreePath {
		to.BottleneckBps = 40e9
		to.BufferBytes = 4 << 20
	}
	costs := ksim.DefaultCosts()
	t := topo.BuildDumbbell(eng, to, opt.WithScope(o.Scope))
	t.ProvisionCPUs(4, costs, opt.WithScope(o.Scope))
	d := &Dumbbell{Eng: eng, Topo: t, Sender: t.Senders[0], Receiver: t.Receivers[0],
		BottleneckBps: to.BottleneckBps, Costs: costs, opts: o}
	d.Scope = d.Sender.Eng.PartitionScope(o.Scope)

	if o.Faults.Active() {
		d.Faults = fault.New(o.Faults, o.FaultSeed, d.Scope)
		d.Faults.StartCPUSpikes(d.Sender.Eng, func(work int64) {
			d.Sender.CPU.Charge(ksim.SoftIRQ, netsim.Time(work))
		})
		d.stops = append(d.stops, d.Faults.StopCPUSpikes)
	}

	if o.Background != NoBackground {
		udp := tcp.NewUDPSource(t.UDPHost, 9999, d.Receiver.ID, 100e6)
		switch o.Background {
		case ConstantUDP:
			udp.Start()
		case BurstyUDP:
			b := tcp.NewBurstyUDP(udp, 20e6, 180e6, 200*netsim.Millisecond)
			b.Start()
			d.stops = append(d.stops, b.Stop)
		case SwitchedUDP:
			udp.Start()
			if o.SwitchPeriod > 0 {
				d.Switcher = workload.NewPatternSwitcher(t.UDPHost.Eng, udp, o.SwitchPeriod,
					[]int64{700e6, 100e6, 400e6}, o.SwitchSeed)
				d.Switcher.StartAt(0)
				d.stops = append(d.stops, d.Switcher.Stop)
			} else {
				udp.SetRate(700e6)
			}
		}
		d.stops = append(d.stops, udp.Stop)
	}
	return d
}

// Deploy installs mod on a core in the sender's partition, on the sender's
// CPU and under the rig's scope. Run stops it.
func (d *Dumbbell) Deploy(cfg core.Config, mod *codegen.Module, options ...opt.Option) *Deployment {
	options = append([]opt.Option{opt.WithScope(d.Scope)}, options...)
	d.Dep = Deploy(d.Sender.Eng, d.Sender.CPU, d.Costs, cfg, mod, options...)
	return d.Dep
}

// AddFlow starts one more long-lived flow from sender to receiver under the
// controller mk returns for its flow ID (IDs count from 1). Bytes delivered
// to the receiving application while the measuring gate is open are
// accounted per flow. A controller with a Stop method is stopped by Run.
func (d *Dumbbell) AddFlow(mk func(flow netsim.FlowID) tcp.CongestionControl) *tcp.Sender {
	i := len(d.delivered)
	flow := netsim.FlowID(i + 1)
	ctrl := mk(flow)
	if s, ok := ctrl.(interface{ Stop() }); ok {
		d.stops = append(d.stops, s.Stop)
	}
	d.delivered = append(d.delivered, 0)
	s := tcp.NewSender(d.Sender, flow, d.Receiver.ID, 0, ctrl)
	rcv := tcp.NewReceiver(d.Receiver, flow, d.Sender.ID)
	rcv.OnDeliver = func(n int, now netsim.Time) {
		if !d.measuring {
			return
		}
		d.delivered[i] += int64(n)
		if d.OnDeliver != nil {
			d.OnDeliver(i, n, now-d.warmup)
		}
	}
	s.Start()
	d.Senders = append(d.Senders, s)
	return s
}

// Delivered returns flow i's (0-based) bytes delivered inside the measured
// window so far. It is written in the receiver's partition: samplers that
// read it mid-run must tick on Receiver.Eng.
func (d *Dumbbell) Delivered(i int) int64 { return d.delivered[i] }

// Sample calls fn every period while the measuring gate is open, passing the
// time since it opened. eng must be the partition owning whatever fn reads.
func (d *Dumbbell) Sample(eng *netsim.Engine, period netsim.Time, fn func(sinceWarmup netsim.Time)) {
	var tick func()
	tick = func() {
		eng.After(period, func() {
			if d.measuring {
				fn(eng.Now() - d.warmup)
			}
			tick()
		})
	}
	tick()
}

// Run executes warmup, opens the measuring gate and restarts CPU accounting
// (re-running mpstat for the measured interval), executes dur, then closes
// the gate and stops everything the rig started.
func (d *Dumbbell) Run(warmup, dur netsim.Time) {
	d.warmup = warmup
	end := warmup + dur
	flightTick(d.Eng, d.opts.Flight, d.opts.Scope.Registry(), netsim.Millisecond, end)
	// Without a warm-up the window opens before the first event, so work
	// charged at t = 0 is part of the measurement.
	if warmup > 0 {
		d.Eng.RunUntil(warmup)
	}
	d.measuring = true
	d.Sender.CPU.ResetAccounting()
	d.Receiver.CPU.ResetAccounting()
	d.Eng.RunUntil(end)
	d.measuring = false
	// Nothing executes after this point, so the order only has to be
	// complete: traffic and controllers, then the slow path and core they fed.
	for _, stop := range d.stops {
		stop()
	}
	d.Dep.Stop()
}
