package opt_test

// Tests for the functional-options package and its consumers: option
// application/ignoring per constructor and nil-safety.

import (
	"reflect"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

func TestResolveEmpty(t *testing.T) {
	o := opt.Resolve(nil)
	if o.Faults != nil || o.Watchdog != nil {
		t.Errorf("zero Options expected, got %+v", o)
	}
	if !reflect.DeepEqual(o.Scope, obs.Scope{}) {
		t.Errorf("default scope must be the zero (no-op) scope, got %+v", o.Scope)
	}
}

func TestResolveSkipsNilOptions(t *testing.T) {
	o := opt.Resolve([]opt.Option{nil, opt.WithFaults(nil), nil})
	if o.Faults != nil {
		t.Errorf("nil injector must stay nil, got %v", o.Faults)
	}
}

func TestWithScopeLastWins(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	o := opt.Resolve([]opt.Option{
		opt.WithScope(obs.New(regA, nil)),
		opt.WithScope(obs.New(regB, nil)),
	})
	if o.Scope.Registry() != regB {
		t.Error("later WithScope must override earlier one")
	}
}

func TestWithWatchdogDefaults(t *testing.T) {
	o := opt.Resolve([]opt.Option{opt.WithWatchdog(opt.Watchdog{})})
	if o.Watchdog == nil {
		t.Fatal("WithWatchdog must set Options.Watchdog")
	}
	if o.Watchdog.Window != opt.DefaultWatchdogWindow {
		t.Errorf("zero Window: got %d, want default %d", o.Watchdog.Window, opt.DefaultWatchdogWindow)
	}

	o = opt.Resolve([]opt.Option{opt.WithWatchdog(opt.Watchdog{Window: 7e9})})
	if o.Watchdog.Window != 7e9 {
		t.Errorf("explicit fields must be preserved, got %+v", *o.Watchdog)
	}
}

func TestWithWatchdogCopiesValue(t *testing.T) {
	w := opt.Watchdog{Window: 5e9}
	option := opt.WithWatchdog(w)
	w.Window = 1 // mutating the caller's copy must not affect the option
	o := opt.Resolve([]opt.Option{option})
	if o.Watchdog.Window != 5e9 {
		t.Errorf("WithWatchdog must capture the value at construction, got %d", o.Watchdog.Window)
	}
}

// TestConstructorsIgnoreIrrelevantOptions verifies constructors tolerate
// options they do not consume instead of misbehaving: a CPU uses neither a
// watchdog nor a fault injector, a channel no watchdog.
func TestConstructorsIgnoreIrrelevantOptions(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 1, opt.WithWatchdog(opt.Watchdog{}), opt.WithFaults(nil))
	if cpu == nil {
		t.Fatal("CPU constructor rejected irrelevant options")
	}
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil,
		opt.WithWatchdog(opt.Watchdog{Window: 1}), opt.WithFaults(nil))
	if ch == nil {
		t.Fatal("channel constructor rejected irrelevant options")
	}
}
