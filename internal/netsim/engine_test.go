package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 300 {
		t.Errorf("Now = %d, want 300", e.Now())
	}
}

func TestEngineFIFOWithinSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine()
	var at2 Time
	e.After(100, func() {
		e.After(50, func() { at2 = e.Now() })
	})
	e.Run()
	if at2 != 150 {
		t.Errorf("nested After time = %d, want 150", at2)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Errorf("negative After must run at now; ran=%v now=%d", ran, e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(500, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now = %d, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (the t=500 event)", e.Pending())
	}
	e.Run()
	if e.Now() != 500 {
		t.Errorf("final Now = %d, want 500", e.Now())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
}

// Property: regardless of insertion order, events execute in nondecreasing
// time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var times []Time
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			at := Time(r.Intn(10000))
			e.At(at, func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.At(Time(j), func() {})
		}
		e.Run()
	}
}

// Step executes the earliest event. It returns false when the queue is
// empty. Step is a single-partition affair; on a multi-partition engine it
// panics — windowed execution (Run/RunUntil) is the only way to interleave
// partitions deterministically.
func (e *Engine) Step() bool {
	if len(e.co.parts) > 1 {
		panic("netsim: Step on a multi-partition engine; use Run or RunUntil")
	}
	p := e.co.parts[0]
	if p.q.len() == 0 {
		return false
	}
	ev := p.q.pop()
	p.now = ev.at
	ev.fn()
	p.q.settle()
	return true
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// HandlePacket calls f(p).
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }
