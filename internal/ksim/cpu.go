// Package ksim models the host CPU of a kernel datapath: a finite processing
// resource shared by packet processing (softirq), kernel work, and userspace
// work. It is the substitute for the real kernel's scheduling behaviour that
// the LiteFlow paper measures with mpstat (Figures 3, 4, 13, 14): when
// cross-space communication consumes CPU, fewer cycles remain for packet
// processing and datapath throughput collapses.
//
// The model is a single logical work-conserving server whose capacity scales
// with the configured core count. Work items are serialized FIFO; each item
// charges its duration to an accounting category. When the backlog exceeds
// maxBacklog the submission is rejected — the analog of NIC ring overflow
// under overload.
package ksim

import (
	"fmt"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

// Category classifies CPU time the way mpstat buckets it.
type Category int

// Accounting categories.
const (
	User    Category = iota // userspace execution (NN tuning, CCP agent)
	Kernel                  // syscalls and kernel datapath logic
	SoftIRQ                 // packet receive processing and cross-space switching
	numCategories
)

// String returns the mpstat-style column name.
func (c Category) String() string {
	switch c {
	case User:
		return "usr"
	case Kernel:
		return "sys"
	case SoftIRQ:
		return "soft"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// CPU is a finite compute resource attached to a simulation engine.
type CPU struct {
	eng   *netsim.Engine
	cores int

	busyUntil netsim.Time // never decreases
	done      netsim.Ring // SubmitPacket's completions, FIFO like busyUntil

	// busy (raw CPU time per category) and rejected count from construction,
	// as the exported series do; the accessors subtract their values as of
	// the last ResetAccounting.
	busy, busyBase         [numCategories]netsim.Time
	rejected, rejectedBase int64
	started                netsim.Time

	sc obs.Scope
}

// maxBacklog bounds how far work may queue ahead of the current time, in
// wall time; submissions beyond it are rejected. This models the finite NIC
// ring / softirq budget: an overloaded kernel drops packets rather than
// queueing them forever.
const maxBacklog = 5 * netsim.Millisecond

// NewHostCPU returns a CPU with the given core count attached to eng. It
// panics if cores is not positive. opt.WithScope exports per-category busy
// time and charge trace events; omitted, telemetry is a no-op.
func NewHostCPU(eng *netsim.Engine, cores int, options ...opt.Option) *CPU {
	if cores <= 0 {
		panic("ksim: cores must be positive")
	}
	c := &CPU{eng: eng, cores: cores, started: eng.Now(), sc: opt.Resolve(options).Scope}
	c.done.Init(eng)
	for cat := Category(0); cat < numCategories; cat++ {
		c.sc.CounterOf("liteflow_cpu_busy_ns_total",
			"raw CPU time consumed, by mpstat category", &c.busy[cat],
			obs.Label{Key: "category", Value: cat.String()})
	}
	c.sc.CounterOf("liteflow_cpu_rejected_total",
		"work submissions refused by the backlog bound", &c.rejected)
	return c
}

// Rejected returns how many submissions were refused due to backlog since the
// last ResetAccounting (or construction).
func (c *CPU) Rejected() int64 { return c.rejected - c.rejectedBase }

// wallTime converts raw CPU work into wall time on this CPU: n cores retire
// work n times faster.
func (c *CPU) wallTime(work netsim.Time) netsim.Time {
	w := work / netsim.Time(c.cores)
	if w == 0 && work > 0 {
		w = 1
	}
	return w
}

// Submit schedules a work item consuming the given CPU time in category cat,
// invoking done (which may be nil) when the work retires. It reports false —
// and drops the work — when the backlog bound is exceeded.
func (c *CPU) Submit(cat Category, work netsim.Time, done func()) bool {
	if !c.admit(cat, work) {
		return false
	}
	if done != nil {
		c.eng.At(c.busyUntil, done)
	}
	return true
}

// SubmitPacket is the closure-free Submit for per-packet work: when the work
// retires, fn(p) runs. busyUntil never decreases, so completions leave in the
// order they were submitted and wait in the CPU's ring, like a link's packets
// in propagation: the steady-state packet datapath schedules them without
// allocating. Backlog rejection matches Submit; the caller owns (and frees)
// the packet on rejection.
func (c *CPU) SubmitPacket(cat Category, work netsim.Time, fn func(*netsim.Packet), p *netsim.Packet) bool {
	if !c.admit(cat, work) {
		return false
	}
	c.done.At(c.busyUntil, fn, p)
	return true
}

// admit charges work unless the backlog is over the bound, in which case it
// counts a rejection and reports false.
func (c *CPU) admit(cat Category, work netsim.Time) bool {
	if now := c.eng.Now(); c.busyUntil-now > maxBacklog {
		c.rejected++
		c.sc.Event1("cpu", "reject", now, "ns", int64(work))
		return false
	}
	c.Charge(cat, work)
	return true
}

// Charge accounts CPU time without scheduling a completion callback and
// without backlog rejection. Use it for background work whose completion is
// tracked elsewhere (e.g. a userspace trainer's compute burst).
func (c *CPU) Charge(cat Category, work netsim.Time) {
	now := c.eng.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busy[cat] += work
	c.busyUntil += c.wallTime(work)
	c.sc.Event1("cpu", cat.String(), now, "ns", int64(work))
}

// QueueDelay returns how long newly submitted work would wait before starting.
func (c *CPU) QueueDelay() netsim.Time {
	now := c.eng.Now()
	if c.busyUntil <= now {
		return 0
	}
	return c.busyUntil - now
}

// BusyTime returns the raw CPU time consumed in category cat since the last
// ResetAccounting (or construction).
func (c *CPU) BusyTime(cat Category) netsim.Time { return c.busy[cat] - c.busyBase[cat] }

// TotalBusy returns the raw CPU time consumed across all categories since the
// last ResetAccounting.
func (c *CPU) TotalBusy() netsim.Time {
	var t netsim.Time
	for cat := range c.busy {
		t += c.BusyTime(Category(cat))
	}
	return t
}

// Share returns category cat's fraction of total busy CPU time — the
// quantity Figure 4 and Figure 14 report ("portion of time handling software
// interrupts over total execution time"). It returns 0 when idle.
func (c *CPU) Share(cat Category) float64 {
	tot := c.TotalBusy()
	if tot == 0 {
		return 0
	}
	return float64(c.BusyTime(cat)) / float64(tot)
}

// Utilization returns total busy CPU time divided by available CPU time
// (cores × elapsed wall time) since the last ResetAccounting.
func (c *CPU) Utilization() float64 {
	elapsed := c.eng.Now() - c.started
	if elapsed <= 0 {
		return 0
	}
	return float64(c.TotalBusy()) / float64(elapsed*netsim.Time(c.cores))
}

// ResetAccounting restarts the accounting window, like re-running mpstat for
// a fresh interval: the accessors count from here. The exported series keep
// counting from construction.
func (c *CPU) ResetAccounting() {
	c.busyBase, c.rejectedBase = c.busy, c.rejected
	c.started = c.eng.Now()
}

// Report is an mpstat-style snapshot of CPU accounting.
type Report struct {
	UserTime    netsim.Time
	KernelTime  netsim.Time
	SoftIRQTime netsim.Time
	SoftShare   float64 // SoftIRQTime / total busy
	Utilization float64
	Rejected    int64
}

// Report returns the current accounting snapshot.
func (c *CPU) Report() Report {
	return Report{
		UserTime:    c.BusyTime(User),
		KernelTime:  c.BusyTime(Kernel),
		SoftIRQTime: c.BusyTime(SoftIRQ),
		SoftShare:   c.Share(SoftIRQ),
		Utilization: c.Utilization(),
		Rejected:    c.Rejected(),
	}
}

// String renders the report as one mpstat-like line.
func (r Report) String() string {
	return fmt.Sprintf("usr=%.1fms sys=%.1fms soft=%.1fms soft%%=%.1f util=%.2f rej=%d",
		float64(r.UserTime)/1e6, float64(r.KernelTime)/1e6, float64(r.SoftIRQTime)/1e6,
		r.SoftShare*100, r.Utilization, r.Rejected)
}
