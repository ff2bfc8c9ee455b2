package ksim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

func TestSubmitSerializesWork(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	var done []netsim.Time
	c.Submit(Kernel, 100, func() { done = append(done, e.Now()) })
	c.Submit(Kernel, 100, func() { done = append(done, e.Now()) })
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 200 {
		t.Errorf("completions = %v, want [100 200]", done)
	}
}

// TestCompletionsFireAsIfPushedEach mixes SubmitPacket (its completions wait
// in the CPU's ring), Submit (each a plain event) and Charge (no completion)
// at tied times, on one and two cores, with zero-work items among them. Every
// completion must run at the busyUntil it was given, and in the order one
// push per completion gives: by time, then by submission.
func TestCompletionsFireAsIfPushedEach(t *testing.T) {
	type done struct {
		id int
		at netsim.Time
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := netsim.NewEngine()
		c := NewHostCPU(e, 1+r.Intn(2))
		var want, got []done
		record := func(id int) { got = append(got, done{id, e.Now()}) }
		retire := func(p *netsim.Packet) { record(int(p.Seq)) }
		for i := 0; i < 300; i++ {
			id, kind := i, r.Intn(3)
			work := netsim.Time(r.Intn(3)) * netsim.Microsecond
			e.At(netsim.Time(r.Intn(200))*netsim.Microsecond, func() {
				switch kind {
				case 0:
					c.SubmitPacket(SoftIRQ, work, retire, &netsim.Packet{Seq: int64(id)})
				case 1:
					c.Submit(Kernel, work, func() { record(id) })
				default:
					c.Charge(User, work)
					return
				}
				want = append(want, done{id, c.busyUntil})
			})
		}
		e.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d completions ran, %d were submitted", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: completion %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestMultiCoreSpeedsUpWallTime(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 4)
	var at netsim.Time
	c.Submit(Kernel, 400, func() { at = e.Now() })
	e.Run()
	if at != 100 {
		t.Errorf("4-core completion = %d, want 100", at)
	}
	// Raw accounting still records the full CPU work.
	if c.BusyTime(Kernel) != 400 {
		t.Errorf("BusyTime = %d, want 400", c.BusyTime(Kernel))
	}
}

func TestBacklogRejection(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	if !c.Submit(SoftIRQ, 4500*netsim.Microsecond, nil) {
		t.Fatal("first submit must fit")
	}
	if !c.Submit(SoftIRQ, 2500*netsim.Microsecond, nil) {
		t.Fatal("second submit must fit (backlog 4.5 ms ≤ 5 ms)")
	}
	if c.Submit(SoftIRQ, 1, nil) {
		t.Error("submit beyond backlog bound must be rejected")
	}
	if c.Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", c.Rejected())
	}
}

func TestBacklogDrainsOverTime(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	c.Submit(Kernel, 6*netsim.Millisecond, nil)
	if c.Submit(Kernel, 100, nil) {
		t.Fatal("must reject while backlog exceeds bound")
	}
	e.RunUntil(1500 * netsim.Microsecond)
	if !c.Submit(Kernel, 100, nil) {
		t.Error("must accept after backlog drained below bound")
	}
}

func TestAccountingSharesAndReport(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 2)
	c.Submit(User, 100, nil)
	c.Submit(Kernel, 300, nil)
	c.Submit(SoftIRQ, 600, nil)
	if got := c.Share(SoftIRQ); got != 0.6 {
		t.Errorf("SoftIRQ share = %v, want 0.6", got)
	}
	if got := c.TotalBusy(); got != 1000 {
		t.Errorf("TotalBusy = %v, want 1000", got)
	}
	r := c.Report()
	if r.SoftIRQTime != 600 || r.UserTime != 100 || r.KernelTime != 300 {
		t.Errorf("report = %+v", r)
	}
	if r.String() == "" {
		t.Error("report must render")
	}
}

func TestUtilizationWindow(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	c.Submit(Kernel, 500, nil)
	e.RunUntil(1000)
	if got := c.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	c.ResetAccounting()
	if c.TotalBusy() != 0 || c.Utilization() != 0 {
		t.Error("ResetAccounting must zero counters")
	}
	e.At(1000, func() { c.Submit(Kernel, 250, nil) })
	e.RunUntil(2000)
	if got := c.Utilization(); got != 0.25 {
		t.Errorf("post-reset Utilization = %v, want 0.25", got)
	}
}

func TestIdleCPUShareIsZero(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	if c.Share(SoftIRQ) != 0 || c.Utilization() != 0 {
		t.Error("idle CPU must report zero shares")
	}
}

func TestChargeDoesNotReject(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	c.Charge(User, 4*netsim.Millisecond)
	c.Charge(User, 4*netsim.Millisecond) // backlog 4 ms → 8 ms, past the bound
	if c.BusyTime(User) != 8*netsim.Millisecond {
		t.Errorf("Charge must always account, got %d", c.BusyTime(User))
	}
	if c.Submit(User, 1, nil) || c.Rejected() != 1 {
		t.Error("a Submit behind an 8 ms backlog must be rejected")
	}
}

func TestQueueDelay(t *testing.T) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 1)
	if c.QueueDelay() != 0 {
		t.Error("idle CPU queue delay must be 0")
	}
	c.Submit(Kernel, 400, nil)
	if c.QueueDelay() != 400 {
		t.Errorf("QueueDelay = %d, want 400", c.QueueDelay())
	}
	e.RunUntil(150)
	if c.QueueDelay() != 250 {
		t.Errorf("QueueDelay after 150 = %d, want 250", c.QueueDelay())
	}
}

func TestZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHostCPU(0 cores) must panic")
		}
	}()
	NewHostCPU(netsim.NewEngine(), 0)
}

func TestCategoryString(t *testing.T) {
	if User.String() != "usr" || Kernel.String() != "sys" || SoftIRQ.String() != "soft" {
		t.Error("category names wrong")
	}
	if Category(42).String() == "" {
		t.Error("unknown category must still render")
	}
}

func TestInferCostFloor(t *testing.T) {
	if got := InferCost(2, 10); got != netsim.Microsecond {
		t.Errorf("tiny inference must hit the 1µs floor, got %d", got)
	}
	if got := InferCost(2, 1_000_000); got != 2_000_000 {
		t.Errorf("large inference = %d, want 2ms", got)
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	if c.PacketRx <= 0 || c.CrossSpace <= c.PacketRx {
		t.Errorf("cross-space switching must dominate per-packet cost: %+v", c)
	}
	if c.NetlinkPerMsg >= c.CrossSpace {
		t.Error("a batched netlink message must be cheaper than a cross-space control switch")
	}
}

func BenchmarkSubmit(b *testing.B) {
	e := netsim.NewEngine()
	c := NewHostCPU(e, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.QueueDelay() >= maxBacklog {
			e.RunUntil(e.Now() + maxBacklog) // drain: Submit(nil) schedules nothing
		}
		c.Submit(SoftIRQ, 100, nil)
	}
	if c.Rejected() != 0 {
		b.Fatalf("%d submissions rejected; the drain no longer keeps the backlog under the bound", c.Rejected())
	}
}
