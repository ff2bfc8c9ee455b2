package netlink

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

func newTestChannel(deliver func([]Message)) (*netsim.Engine, *ksim.CPU, *Channel) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	ch := NewChannel(eng, cpu, ksim.DefaultCosts(), deliver)
	return eng, cpu, ch
}

func TestFlushDeliversBatch(t *testing.T) {
	var got []Message
	eng, _, ch := newTestChannel(func(b []Message) { got = b })
	ch.Push(Message{Kind: KindSample, Data: []float64{1, 2}})
	ch.Push(Message{Kind: KindSample, Data: []float64{3}})
	ch.Flush()
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].Data[0] != 1 || got[1].Data[0] != 3 {
		t.Error("batch order wrong")
	}
	if len(ch.buf) != 0 {
		t.Error("buffer must be empty after flush")
	}
}

func TestFlushChargesCPU(t *testing.T) {
	eng, cpu, ch := newTestChannel(func(b []Message) {})
	ch.Push(Message{Data: make([]float64, 10)})
	before := cpu.TotalBusy()
	ch.Flush()
	eng.Run()
	if cpu.BusyTime(ksim.SoftIRQ) == 0 {
		t.Error("flush must charge softirq time")
	}
	if cpu.BusyTime(ksim.Kernel) == 0 {
		t.Error("flush must charge kernel copy time")
	}
	if cpu.TotalBusy() <= before {
		t.Error("flush must consume CPU")
	}
}

func TestEmptyFlushIsFree(t *testing.T) {
	eng, cpu, ch := newTestChannel(func(b []Message) { t.Error("must not deliver empty batch") })
	ch.Flush()
	eng.Run()
	if cpu.TotalBusy() != 0 {
		t.Error("empty flush must be free")
	}
	if ch.Stats().Flushes != 0 {
		t.Error("empty flush must not count")
	}
}

func TestDeliveryIncursLatency(t *testing.T) {
	var at netsim.Time = -1
	eng, _, ch := newTestChannel(nil)
	costs := ksim.DefaultCosts()
	ch.deliver = func(b []Message) { at = eng.Now() }
	ch.Push(Message{Data: []float64{1}})
	ch.Flush()
	eng.Run()
	if at < costs.CrossSpaceLatency {
		t.Errorf("delivery at %d, want ≥ cross-space latency %d", at, costs.CrossSpaceLatency)
	}
}

func TestPeriodicBatching(t *testing.T) {
	var batches [][]Message
	eng, _, ch := newTestChannel(func(b []Message) { batches = append(batches, b) })
	// Producer: one sample every 10 ms.
	var produce func()
	n := 0
	produce = func() {
		if n >= 30 {
			ch.StopBatching()
			return
		}
		ch.Push(Message{Data: []float64{float64(n)}})
		n++
		eng.After(10*netsim.Millisecond, produce)
	}
	eng.After(0, produce)
	ch.StartBatching(100 * netsim.Millisecond) // the paper's T = 100 ms
	eng.RunUntil(400 * netsim.Millisecond)
	if len(batches) < 3 {
		t.Fatalf("got %d batches, want ≥ 3", len(batches))
	}
	// Each 100 ms batch should hold ~10 samples.
	if got := len(batches[0]); got < 8 || got > 12 {
		t.Errorf("first batch has %d samples, want ≈10", got)
	}
}

func TestStartBatchingValidation(t *testing.T) {
	_, _, ch := newTestChannel(func(b []Message) {})
	defer func() {
		if recover() == nil {
			t.Error("non-positive interval must panic")
		}
	}()
	ch.StartBatching(0)
}

func TestBufferBoundDropsOldest(t *testing.T) {
	var got []Message
	eng, _, ch := newTestChannel(func(b []Message) { got = b })
	for i := 0; i < maxBuffer+2; i++ {
		ch.Push(Message{Data: []float64{float64(i)}})
	}
	if ch.Stats().Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", ch.Stats().Dropped)
	}
	ch.Flush()
	eng.Run()
	if len(got) != maxBuffer || got[0].Data[0] != 2 || got[maxBuffer-1].Data[0] != maxBuffer+1 {
		t.Errorf("buffer must keep newest; got %v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, _, ch := newTestChannel(func(b []Message) {})
	ch.Push(Message{Data: make([]float64, 4)}) // 16 + 32 bytes
	ch.Push(Message{Data: make([]float64, 1)}) // 16 + 8 bytes
	ch.Flush()
	eng.Run()
	s := ch.Stats()
	if s.Flushes != 1 || s.Messages != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Bytes != 72 {
		t.Errorf("Bytes = %d, want 72", s.Bytes)
	}
}

func TestSendToKernel(t *testing.T) {
	eng, cpu, ch := newTestChannel(func(b []Message) {})
	ran := false
	ch.SendToKernel(1024, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("kernel callback did not run")
	}
	if cpu.BusyTime(ksim.SoftIRQ) == 0 || cpu.BusyTime(ksim.Kernel) == 0 {
		t.Error("downcall must charge CPU")
	}
	s := ch.Stats()
	if s.Downcalls != 1 || s.DownBytes != 1024 {
		t.Errorf("stats = %+v", s)
	}
	// nil callback must not panic.
	ch.SendToKernel(1, nil)
	eng.Run()
}

func TestSmallTBeatsLargeTOnOverheadPerSample(t *testing.T) {
	// Batching economics: flushing every 1 ms costs far more CPU per sample
	// than every 100 ms at the same production rate — the left side of
	// Figure 14.
	run := func(interval netsim.Time) float64 {
		eng, cpu, ch := newTestChannel(func(b []Message) {})
		var produce func()
		n := 0
		produce = func() {
			if n >= 1000 {
				return
			}
			ch.Push(Message{Data: []float64{1}})
			n++
			eng.After(netsim.Millisecond, produce)
		}
		eng.After(0, produce)
		ch.StartBatching(interval)
		eng.RunUntil(netsim.Second)
		ch.StopBatching()
		return float64(cpu.BusyTime(ksim.SoftIRQ))
	}
	fast := run(netsim.Millisecond)
	slow := run(100 * netsim.Millisecond)
	if fast < slow*10 {
		t.Errorf("1ms flushing softirq=%v should be ≫ 100ms flushing softirq=%v", fast, slow)
	}
}

func BenchmarkPushFlush(b *testing.B) {
	eng, _, ch := newTestChannel(func(batch []Message) {})
	msg := Message{Data: make([]float64, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch.Push(msg)
		if i%64 == 63 {
			ch.Flush()
			eng.Run()
		}
	}
}
