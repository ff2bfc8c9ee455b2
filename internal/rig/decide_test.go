package rig

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/lb"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// The arms' latency ordering and kernel/userspace agreement are tested with
// each decode: internal/sched (priority) and internal/lb (path).

// TestKernelDeciderWithoutSnapshot: a core with nothing installed cannot
// answer, so the kernel arm replies its fallback at once, at zero latency.
func TestKernelDeciderWithoutSnapshot(t *testing.T) {
	eng := netsim.NewEngine()
	c := core.NewCore(eng, nil, ksim.DefaultCosts(), core.DefaultConfig())
	got := -1
	lat := KernelDecider(c, 1, 7, lb.Argmax)(1, make([]float64, lb.InputDim(2)), func(d int) { got = d })
	if got != 7 || lat != 0 {
		t.Errorf("no snapshot: replied %d after %v, want the fallback 7 at once", got, lat)
	}
}
