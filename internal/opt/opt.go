// Package opt defines the functional-options pattern shared by every
// component constructor (core, netlink, ksim, netsim, topo). It replaces the
// old trailing-variadic `sc ...obs.Scope` convention: options compose, new
// knobs (fault injection, watchdog) ride the same parameter,
// and call sites read as configuration rather than positional magic.
//
// The package sits just above obs and fault in the import graph so every
// subsystem can depend on it without cycles.
package opt

import (
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// Watchdog configures the core's slow-path liveness watchdog: if no batch
// reaches the userspace service within Window, the core degrades gracefully
// to the last-good snapshot (pending standby discarded) and counts
// liteflow_core_degraded_total. The watchdog checks every Window/2. All
// times are virtual nanoseconds.
type Watchdog struct {
	// Window is the maximum silence tolerated before degrading.
	// Zero selects DefaultWatchdogWindow.
	Window int64
}

// DefaultWatchdogWindow tolerates one second of slow-path silence — ten
// missed batches at the paper's recommended T = 100 ms.
const DefaultWatchdogWindow = int64(1e9)

// withDefaults fills zero fields.
func (w Watchdog) withDefaults() Watchdog {
	if w.Window <= 0 {
		w.Window = DefaultWatchdogWindow
	}
	return w
}

// Options is the resolved option set a constructor consumes.
type Options struct {
	// Scope is the telemetry scope; the zero value is a valid no-op.
	Scope obs.Scope
	// Faults is the fault injector; nil injects nothing.
	Faults *fault.Injector
	// Watchdog, when non-nil, enables the core's slow-path watchdog.
	Watchdog *Watchdog
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

// WithFaults attaches a fault injector. A nil injector is valid and injects
// nothing, so callers can wire it unconditionally.
func WithFaults(inj *fault.Injector) Option {
	return func(o *Options) { o.Faults = inj }
}

// WithWatchdog enables the core's slow-path liveness watchdog. A zero
// Window takes the default (1 s).
func WithWatchdog(w Watchdog) Option {
	w = w.withDefaults()
	return func(o *Options) { o.Watchdog = &w }
}
