package netlink

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// TestSetDeliverReplacementAppliesToInFlightBatches pins the delivery-callback
// contract: a batch whose cross-space latency is still elapsing goes to the
// callback installed at delivery time, so swapping the handler mid-flight
// (as NewSlowPath does when it installs itself after construction) never
// delivers to a stale callback.
func TestSetDeliverReplacementAppliesToInFlightBatches(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	oldCalls, newCalls := 0, 0
	ch := NewChannel(eng, cpu, ksim.DefaultCosts(), func([]Message) { oldCalls++ })
	ch.Push(Message{Data: []float64{1}})
	ch.Flush() // delivery now scheduled after cross-space latency
	ch.SetDeliver(func([]Message) { newCalls++ })
	eng.Run()
	if oldCalls != 0 || newCalls != 1 {
		t.Errorf("in-flight batch went to old callback (old=%d new=%d), want the replacement",
			oldCalls, newCalls)
	}
}

// TestNilDeliverIsCountedNotPanic: a batch firing with no callback installed
// is a counted discard (liteflow_netlink_undelivered_total), never a panic.
func TestNilDeliverIsCountedNotPanic(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	ch := NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
	ch.Push(Message{Data: []float64{1}})
	ch.Push(Message{Data: []float64{2}})
	ch.Flush()
	eng.Run()
	if got := ch.Stats().Undelivered; got != 2 {
		t.Errorf("Undelivered = %d, want 2", got)
	}
}

// TestFlushFaults: with a drop-everything injector the whole batch is lost
// before the kernel pays flush costs; with corruption the payloads mutate
// but still arrive.
func TestFlushFaults(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	dropAll := fault.New(fault.Profile{MsgDropP: 1}, 1, obs.Scope{})
	delivered := 0
	ch := NewChannel(eng, cpu, ksim.DefaultCosts(), func(b []Message) { delivered += len(b) })
	ch.SetFaults(dropAll)
	ch.Push(Message{Data: []float64{1}})
	ch.Push(Message{Data: []float64{2}})
	ch.Flush()
	eng.Run()
	if delivered != 0 {
		t.Errorf("drop-all injector delivered %d messages", delivered)
	}
	if cpu.TotalBusy() != 0 {
		t.Error("a fully dropped batch must not charge flush costs")
	}
	if ch.Stats().Flushes != 0 {
		t.Error("a fully dropped batch must not count as a flush")
	}

	corrupt := fault.New(fault.Profile{MsgCorruptP: 1}, 1, obs.Scope{})
	var got []Message
	ch2 := NewChannel(eng, cpu, ksim.DefaultCosts(), func(b []Message) { got = b })
	ch2.SetFaults(corrupt)
	ch2.Push(Message{Data: []float64{2, 7, 7}})
	ch2.Flush()
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("corrupted batch must still deliver, got %d messages", len(got))
	}
	if corrupt.Stats().Corrupts != 1 {
		t.Errorf("Corrupts = %d, want 1", corrupt.Stats().Corrupts)
	}
}
