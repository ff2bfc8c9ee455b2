package tcp

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// TestFlowSteadyStateZeroAllocs is the zero-allocation contract for the
// packet datapath: once a flow is warm (segment freelist primed, packet pool
// populated, event-queue capacity grown, SRTT converged), driving the
// simulation forward must not touch the heap. The rig is a clean pipe — no
// drops — so the loss path (rtxQueue growth, loss-burst slices) is
// deliberately outside this contract; it allocates proportionally to loss
// events, which steady state does not have.
func TestFlowSteadyStateZeroAllocs(t *testing.T) {
	flowSteadyStateZeroAllocs(t, false)
}

// TestFlowSteadyStateZeroAllocsWithCPU is the same contract with a CPU on both
// hosts: every segment and ACK is charged on transmit and receive, and its
// completion waits in the CPU's ring (ksim.CPU.SubmitPacket).
func TestFlowSteadyStateZeroAllocsWithCPU(t *testing.T) {
	flowSteadyStateZeroAllocs(t, true)
}

func flowSteadyStateZeroAllocs(t *testing.T, withCPU bool) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the plain job")
	}
	eng := netsim.NewEngine()
	a, b := pair(eng, 1_000_000_000, netsim.Millisecond, 1<<20)
	if withCPU {
		a.AttachCPU(ksim.NewHostCPU(eng, 1), ksim.DefaultCosts())
		b.AttachCPU(ksim.NewHostCPU(eng, 1), ksim.DefaultCosts())
	}
	s := NewSender(a, 1, b.ID, 0, NewFixedRate(200_000_000))
	r := NewReceiver(b, 1, a.ID)
	var delivered int64
	r.OnDeliver = func(n int, now netsim.Time) { delivered += int64(n) }
	s.Start()
	eng.RunUntil(200 * netsim.Millisecond) // warm pools, heap, freelists, SRTT
	if delivered == 0 {
		t.Fatal("flow did not start; alloc measurement is vacuous")
	}
	next := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		next += 10 * netsim.Millisecond
		eng.RunUntil(next)
	})
	if allocs != 0 {
		t.Errorf("steady-state sender/receiver loop allocates %.1f allocs/op, want 0", allocs)
	}
	if s.Retransmits != 0 {
		t.Errorf("clean pipe retransmitted %d segments; rig no longer isolates the no-loss path", s.Retransmits)
	}
	if withCPU && (a.CPU.TotalBusy() == 0 || b.CPU.TotalBusy() == 0) {
		t.Error("a CPU was never charged; the CPU path went unmeasured")
	}
	if withCPU && a.TxDropped+a.RxDropped+b.TxDropped+b.RxDropped != 0 {
		t.Error("a CPU rejected packets; rig no longer isolates the unsaturated path")
	}
}
