package netlink

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
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
	ch.Push(Message{Data: []float64{1, 2}})
	ch.Push(Message{Data: []float64{3}})
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

// TestBatchingStopStartFlushesOnce: after StopBatching and StartBatching
// with the stopped chain's flush still pending, the channel flushes once per
// interval, not twice: 10 flushes in 100 ms at T = 10 ms. A producer pushes
// every millisecond, so no flush is empty.
func TestBatchingStopStartFlushesOnce(t *testing.T) {
	eng, _, ch := newTestChannel(func([]Message) {})
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		ch.Push(Message{Data: []float64{1}})
		return netsim.Millisecond, true
	}).Start(0)
	ch.StartBatching(10 * netsim.Millisecond)
	eng.RunUntil(15*netsim.Millisecond - 500*netsim.Microsecond) // between flushes
	ch.StopBatching()
	ch.StartBatching(10 * netsim.Millisecond)
	before := ch.Stats().Flushes
	eng.RunUntil(eng.Now() + 100*netsim.Millisecond)
	if n := ch.Stats().Flushes - before; n != 10 {
		t.Errorf("%d flushes in 100 ms after Stop→Start at T = 10 ms, want 10", n)
	}
}

// TestStartBatchingWhileBatchingKeepsOneChain: StartBatching on a batching
// channel keeps the pending flush and uses the new interval from the next
// re-arm on.
func TestStartBatchingWhileBatchingKeepsOneChain(t *testing.T) {
	eng, _, ch := newTestChannel(func([]Message) {})
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		ch.Push(Message{Data: []float64{1}})
		return netsim.Millisecond, true
	}).Start(0)
	ch.StartBatching(10 * netsim.Millisecond)
	eng.At(5*netsim.Millisecond, func() { ch.StartBatching(20 * netsim.Millisecond) })
	var flushes []int64
	for _, ms := range []netsim.Time{10, 30, 50} {
		eng.RunUntil(ms * netsim.Millisecond)
		flushes = append(flushes, ch.Stats().Flushes)
	}
	if flushes[0] != 1 || flushes[1] != 2 || flushes[2] != 3 {
		t.Errorf("flushes by 10, 30 and 50 ms = %v, want [1 2 3]", flushes)
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

// TestDropOldestKeepsOrderAndPayloads: a full buffer is a ring whose new
// message takes the oldest's slot; after it has wrapped several times, the
// flush delivers the newest maxBuffer messages in push order, each with its
// own payload.
func TestDropOldestKeepsOrderAndPayloads(t *testing.T) {
	var got []Message
	eng, _, ch := newTestChannel(func(b []Message) { got = b })
	const n = 3*maxBuffer + 5
	for i := 0; i < n; i++ {
		ch.Push(Message{Data: []float64{float64(i), float64(i)}[:1+i%2], At: netsim.Time(i)})
	}
	ch.Flush()
	eng.Run()
	if len(got) != maxBuffer || ch.Stats().Dropped != n-maxBuffer {
		t.Fatalf("delivered %d and dropped %d of %d, want the newest %d", len(got), ch.Stats().Dropped, n, maxBuffer)
	}
	for k, m := range got {
		i := n - maxBuffer + k
		if m.At != netsim.Time(i) || len(m.Data) != 1+i%2 || m.Data[0] != float64(i) || m.Data[len(m.Data)-1] != float64(i) {
			t.Fatalf("message %d = %+v, want message %d", k, m, i)
		}
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

// TestChannelPushZeroAllocs: once the batch buffers have grown, a steady
// push, flush and delivery cycle allocates nothing per message and at most
// one object per flush, the delivery event.
func TestChannelPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the plain job")
	}
	eng, _, ch := newTestChannel(func([]Message) {})
	data := make([]float64, 35)
	const perFlush = 64
	cycle := func() {
		for i := 0; i < perFlush; i++ {
			data[0] = float64(i)
			ch.Push(Message{Data: data, At: eng.Now()})
		}
		ch.Flush()
		eng.Run()
	}
	cycle() // grows the batch buffer
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 1 {
		t.Errorf("a cycle of %d pushes and one flush allocates %.2f objects, want ≤ 1", perFlush, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { ch.Push(Message{Data: data}) }); allocs != 0 {
		t.Errorf("Push allocates %.2f objects per message, want 0", allocs)
	}
}

// TestPushCopiesPayload: after Push returns, the caller's buffer is its own
// again, and overwriting it does not change what is delivered.
func TestPushCopiesPayload(t *testing.T) {
	var got []float64
	eng, _, ch := newTestChannel(func(b []Message) { got = append(got, b[0].Data...) })
	data := []float64{1, 2, 3}
	ch.Push(Message{Data: data})
	data[0], data[1], data[2] = -1, -1, -1
	ch.Flush()
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("delivered %v, want the payload as pushed, [1 2 3]", got)
	}
}

// TestInFlightBatchesNeverShareABuffer: with injected delay, reordering and
// message drops, several batches are in flight at once and arrive out of
// order. Each delivery checks every message against what was pushed, then
// poisons its batch before the buffers go back to the channel; a buffer
// shared by two messages or batches, or reused before its delivery, shows as
// a poisoned or overwritten payload in a later delivery.
func TestInFlightBatchesNeverShareABuffer(t *testing.T) {
	const poison = -1
	seen := map[float64]bool{}
	bad := 0
	eng, _, ch := newTestChannel(func(b []Message) {
		for _, m := range b {
			if len(m.Data) == 0 {
				bad++
				continue
			}
			seq := m.Data[0]
			if len(m.Data) != 1+int(seq)%3 || seen[seq] {
				bad++
			}
			for i, v := range m.Data {
				if v != seq+float64(i)/4 {
					bad++
				}
			}
			seen[seq] = true
			for i := range m.Data {
				m.Data[i] = poison
			}
		}
	})
	inj := fault.New(fault.Profile{
		MsgDropP: 0.1, BatchDelayP: 0.5, BatchDelayMax: int64(20 * netsim.Millisecond), BatchReorderP: 0.5,
	}, 1, obs.Scope{})
	ch.SetFaults(inj)
	pushed := 0
	netsim.NewTicker(eng, func() (netsim.Time, bool) {
		for i := 0; i < 4; i++ {
			seq := float64(pushed)
			data := make([]float64, 1+pushed%3)
			for j := range data {
				data[j] = seq + float64(j)/4
			}
			ch.Push(Message{Data: data})
			pushed++
		}
		return 250 * netsim.Microsecond, eng.Now() < 200*netsim.Millisecond
	}).Start(0)
	ch.StartBatching(netsim.Millisecond)
	eng.RunUntil(300 * netsim.Millisecond)
	ch.StopBatching()
	ch.Flush()
	eng.Run()
	if drops := int(inj.Stats().Drops); bad != 0 || drops == 0 || len(seen)+drops != pushed {
		t.Errorf("%d bad payloads; %d of %d messages delivered once, %d dropped", bad, len(seen), pushed, drops)
	}
	if flushes, buffers := ch.Stats().Flushes, len(ch.free); buffers < 2 || int64(buffers) >= flushes/10 {
		t.Errorf("%d flushes used %d buffers: want several in flight at once, and reuse", flushes, buffers)
	}
}

// TestDropOldestPayloadMemoryIsBounded: under sustained drop-oldest, a new
// message takes the evicted one's payload room whenever it fits, so once
// every slot has held the largest payload the arena stops growing, and what
// is delivered is still the newest messages, each with its own payload.
func TestDropOldestPayloadMemoryIsBounded(t *testing.T) {
	var got []Message
	eng, _, ch := newTestChannel(func(b []Message) { got = b })
	pushed := 0
	push := func(n int) {
		for range n {
			ch.Push(Message{Data: []float64{float64(pushed), float64(pushed), float64(pushed)}[:1+pushed%3], At: netsim.Time(pushed)})
			pushed++
		}
	}
	push(4 * maxBuffer) // each slot meets every payload size while it wraps
	warm := cap(ch.arena)
	push(10 * maxBuffer)
	if cap(ch.arena) != warm || warm > 4*3*maxBuffer {
		t.Errorf("arena holds %d values after warm-up and %d after %d more drops; want no growth, within %d",
			warm, cap(ch.arena), 10*maxBuffer, 4*3*maxBuffer)
	}
	ch.Flush()
	eng.Run()
	if len(got) != maxBuffer {
		t.Fatalf("delivered %d, want %d", len(got), maxBuffer)
	}
	for k, m := range got {
		i := pushed - maxBuffer + k
		if m.At != netsim.Time(i) || len(m.Data) != 1+i%3 || m.Data[0] != float64(i) || m.Data[len(m.Data)-1] != float64(i) {
			t.Fatalf("message %d = %+v, want message %d", k, m, i)
		}
	}
}
