// Package opt carries the one constructor option left: WithScope, the
// telemetry scope of core.NewCore, ksim.NewHostCPU, netlink.NewChannel,
// fleet.New, topo.BuildDumbbell and (*topo.Dumbbell).ProvisionCPUs. Every
// other setting lives where it is read: the watchdog window in core.Config,
// the fault injector on the netlink channel.
//
// The package stays only because bench/ passes opt.WithScope; once it passes
// scopes itself, the scope becomes positional and the package goes.
package opt

import "github.com/liteflow-sim/liteflow/internal/obs"

// Options is the resolved option set a constructor consumes.
type Options struct {
	// Scope is the telemetry scope; the zero value is a valid no-op.
	Scope obs.Scope
}

// Option mutates an Options during Resolve.
type Option func(*Options)

// Resolve applies opts in order over the zero Options.
func Resolve(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithScope attaches a telemetry scope (metrics registry + tracer + labels).
// Components that export gauges and share one scope need their own label
// sets (or their own obs.Fork): a second gauge view on one series panics.
func WithScope(sc obs.Scope) Option {
	return func(o *Options) { o.Scope = sc }
}
