package main

import (
	"time"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Probes are short closed loops over one layer's public functions, for the
// layers whose cost inside a workload no boundary exposes. Each returns host
// time per operation; the count is kept by the probe itself.

// probeFor runs step, which reports how many operations it did, until budget
// has elapsed, and returns nanoseconds per operation.
func probeFor(budget time.Duration, step func() int) float64 {
	step() // warm
	var ops int
	t0 := time.Now()
	for time.Since(t0) < budget {
		ops += step()
	}
	return ratio(float64(time.Since(t0)), float64(ops))
}

// eventChains arms n self-rescheduling After callbacks with distinct periods
// on eng, so the heap stays n deep, and returns the counter they bump.
func eventChains(eng *netsim.Engine, n int) *int {
	count := new(int)
	for i := 0; i < n; i++ {
		period := netsim.Time(1000 + 7*i)
		var fn func()
		fn = func() {
			*count++
			eng.After(period, fn)
		}
		eng.After(period, fn)
	}
	return count
}

func probeEvent(budget time.Duration) float64 {
	eng := netsim.NewEngine()
	count := eventChains(eng, 64)
	return probeFor(budget, func() int {
		before := *count
		eng.RunUntil(eng.Now() + netsim.Millisecond)
		return *count - before
	})
}

// probeWindowEvent runs the same chains split over the two partitions of a
// two-domain windowed engine, joined by a link pair that sets the lookahead.
func probeWindowEvent(budget time.Duration) float64 {
	root := netsim.NewParallelEngine(2)
	other := root.AddPartition()
	sink := &netsim.Sink{}
	netsim.NewLink(root, sink, 1e9, 50*netsim.Microsecond, netsim.NewDropTail(1<<20)).BindRemote(other)
	netsim.NewLink(other, sink, 1e9, 50*netsim.Microsecond, netsim.NewDropTail(1<<20)).BindRemote(root)
	a, b := eventChains(root, 32), eventChains(other, 32)
	return probeFor(budget, func() int {
		before := *a + *b
		root.RunUntil(root.Now() + netsim.Millisecond)
		return *a + *b - before
	})
}

func probeLinkPkt(budget time.Duration) float64 {
	eng := netsim.NewEngine()
	sink := &netsim.Sink{}
	link := netsim.NewLink(eng, sink, 10e9, 5*netsim.Microsecond, netsim.NewDropTail(1<<20))
	return probeFor(budget, func() int {
		before := sink.Packets
		for i := 0; i < 64; i++ {
			p := netsim.AllocPacket()
			p.Size = netsim.HeaderBytes + netsim.MSS
			link.Send(p)
		}
		eng.Run()
		return int(sink.Packets - before)
	})
}

func probeSubmit(budget time.Duration) float64 {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	done := 0
	fn := func() { done++ }
	return probeFor(budget, func() int {
		before := done
		for i := 0; i < 64; i++ {
			cpu.Submit(ksim.Kernel, netsim.Microsecond, fn)
		}
		eng.Run()
		return done - before
	})
}

func probeNetlinkMsg(budget time.Duration) float64 {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	got := 0
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), func(b []netlink.Message) { got += len(b) })
	msg := core.EncodeSample(core.Sample{Input: make([]float64, cc.StateDim), Aux: make([]float64, 4)})
	return probeFor(budget, func() int {
		before := got
		for i := 0; i < 64; i++ {
			ch.Push(msg)
		}
		ch.Flush()
		eng.Run()
		return got - before
	})
}

func probeTrainStep(budget time.Duration) float64 {
	net := cc.NewAuroraNet(1)
	opt := nn.NewAdam(1e-3)
	const batch = 8
	x, y := make([][]float64, batch), make([][]float64, batch)
	for i := range x {
		x[i] = make([]float64, cc.StateDim)
		for j := range x[i] {
			x[i][j] = float64((i*31+j*7)%200-100) / 100
		}
		y[i] = []float64{float64(i%3-1) / 2}
	}
	return probeFor(budget, func() int {
		nn.TrainBatch(net, opt, x, y, 5)
		return 1
	}) / 1e3
}

func probeInfer(budget time.Duration) float64 {
	prog := quant.Quantize(cc.NewAuroraNet(1), quant.DefaultConfig())
	in, out := make([]int64, cc.StateDim), make([]int64, 1)
	for i := range in {
		in[i] = int64(i*37%2001) - 1000
	}
	return probeFor(budget, func() int {
		for i := 0; i < 64; i++ {
			prog.Infer(in, out)
		}
		return 64
	})
}

// driftUser flips the output bias every pooled round, so every round mints a
// version.
type driftUser struct {
	net  *nn.Network
	sign float64
}

func (u *driftUser) Freeze() *nn.Network          { return u.net }
func (u *driftUser) Stability() float64           { return 0.5 }
func (u *driftUser) Infer(in []float64) []float64 { return u.net.Infer(in) }
func (u *driftUser) Adapt([]core.Sample) {
	u.net.Layers[len(u.net.Layers)-1].B[0] += u.sign
	u.sign = -u.sign
}

// probeWave is the BenchmarkFleetFanout rig: one op is push → aggregate →
// gate → build → eight bounded-concurrency member installs. µs per wave.
func probeWave(budget time.Duration) (float64, error) {
	eng := netsim.NewEngine()
	cfg := core.DefaultConfig()
	cfg.StabilityWindow = 1
	user := &driftUser{net: nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1), sign: 0.5}
	ctrl := fleet.New(eng, cfg, user, user, user, fleet.Config{
		BatchInterval:         netsim.Millisecond,
		AggregationInterval:   netsim.Millisecond,
		MaxConcurrentInstalls: 8,
	})
	costs := ksim.DefaultCosts()
	for i := 0; i < 8; i++ {
		cpu := ksim.NewHostCPU(eng, 4)
		if _, err := ctrl.AddMember(core.NewCore(eng, cpu, costs, cfg), netlink.NewChannel(eng, cpu, costs, nil)); err != nil {
			return 0, err
		}
	}
	if err := ctrl.Start(); err != nil {
		return 0, err
	}
	input := []float64{0.1, 0.2, 0.3, 0.4}
	ns := probeFor(budget, func() int {
		for _, m := range ctrl.Members() {
			m.Chan.Push(core.EncodeSample(core.Sample{Input: input, At: eng.Now()}))
		}
		eng.RunUntil(eng.Now() + 2*netsim.Millisecond)
		return 1
	})
	eng.RunUntil(eng.Now() + 2*netsim.Millisecond)
	ctrl.Stop()
	for _, m := range ctrl.Members() {
		m.Core.StopSweeper()
	}
	return ns / 1e3, nil
}

func probeCounterInc(budget time.Duration) float64 {
	c := obs.New(obs.NewRegistry(), nil).Counter("bench_probe_total", "probe")
	return probeFor(budget, func() int {
		for i := 0; i < 1024; i++ {
			c.Inc()
		}
		return 1024
	})
}

// runProbes fills the probe metrics. They do not depend on the workload; a
// traced run of any workload carries them so that each run's output is whole.
func runProbes(layer map[string]float64, quick bool) error {
	budget := 150 * time.Millisecond
	if quick {
		budget = 5 * time.Millisecond
	}
	layer["netsim.probe_event_ns"] = probeEvent(budget)
	layer["netsim.probe_link_pkt_ns"] = probeLinkPkt(budget)
	layer["netsim.probe_window_event_ns"] = probeWindowEvent(budget)
	layer["ksim.probe_submit_ns"] = probeSubmit(budget)
	layer["netlink.probe_msg_ns"] = probeNetlinkMsg(budget)
	layer["nn.probe_train_step_us"] = probeTrainStep(budget)
	layer["quant.probe_infer_ns"] = probeInfer(budget)
	wave, err := probeWave(budget)
	if err != nil {
		return err
	}
	layer["fleet.probe_wave_us"] = wave
	layer["obs.probe_counter_inc_ns"] = probeCounterInc(budget)
	return nil
}
