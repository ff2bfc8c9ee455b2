// Package rig is the one place the reproduction wires a testbed: engine
// family, topology and CPUs, snapshot deployment, slow path, flight tick, stop
// sequence. Experiments, the scenario runner and lfsim all build through it,
// so two bars of a figure — or a figure and an lfsim run — differ only in
// what they compare, never in how the harness was put together.
//
// Event ties break FIFO, so construction order is part of the output: always
// topology → CPUs → fault injector → background traffic → core and snapshot →
// slow path → flows → samplers (DESIGN.md §4a).
package rig

import (
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// Build quantizes net and generates its snapshot module. A failure here is a
// bug in an in-tree network or in codegen, not an input error, so it panics.
func Build(net *nn.Network, qc quant.Config, name string) *codegen.Module {
	mod, err := codegen.Build(quant.Quantize(net, qc), name)
	if err != nil {
		panic("rig: build snapshot " + name + ": " + err.Error())
	}
	return mod
}

// User is the userspace side of a slow path: the three LiteFlow interfaces
// every in-tree tuner implements on one value.
type User interface {
	core.Freezer
	core.Evaluator
	core.Adapter
}

// Deployment is one kernel core serving a snapshot, plus its slow path once
// AttachSlowPath has run (Chan and Svc are nil before).
type Deployment struct {
	Core *core.Core
	Chan *netlink.Channel
	Svc  *core.Service
}

// Deploy creates a core on eng (cpu may be nil: no CPU accounting) with mod
// as its active snapshot, exporting under sc (the zero scope exports
// nothing).
func Deploy(eng *netsim.Engine, cpu *ksim.CPU, costs ksim.Costs, cfg core.Config, mod *codegen.Module, sc obs.Scope) *Deployment {
	c := core.NewCore(eng, cpu, costs, cfg, opt.WithScope(sc))
	if _, err := c.RegisterModel(mod); err != nil {
		panic("rig: register snapshot: " + err.Error())
	}
	return &Deployment{Core: c}
}

// AttachSlowPath gives the deployment its userspace half: a netlink channel
// charging cpu (the host whose kernel batches the samples — not always the
// core's own CPU), a service driven by user, and batch delivery every T. The
// channel exports under the core's scope and carries inj (nil = none), which
// subjects both the channel and the service to injected faults.
func (d *Deployment) AttachSlowPath(cpu *ksim.CPU, user User, T netsim.Time, inj *fault.Injector) {
	c := d.Core
	d.Chan = netlink.NewChannel(c.Eng, cpu, c.Costs, nil, opt.WithScope(c.Obs()))
	d.Chan.SetFaults(inj)
	d.Svc = core.NewSlowPath(c, d.Chan, user, user, user)
	d.Svc.Start(T)
}

// Stop ends batching, the flow-cache sweeper and the watchdog. A nil
// deployment (a scheme that needs no core) is a no-op.
func (d *Deployment) Stop() {
	if d == nil {
		return
	}
	if d.Chan != nil {
		d.Chan.StopBatching()
	}
	d.Core.StopSweeper()
	d.Core.StopWatchdog()
}

// flightTick arms the flight recorder when there is one and a registry to
// read: every series is sampled into fr each `every`, until end (the last
// sample is the first at or past end).
func flightTick(eng *netsim.Engine, fr *obs.FlightRecorder, reg *obs.Registry, every, end netsim.Time) {
	if fr == nil || reg == nil {
		return
	}
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		fr.Sample(reg, int64(eng.Now()))
		return every, eng.Now() < end
	}).Start(every)
}
