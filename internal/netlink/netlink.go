// Package netlink simulates the kernel↔userspace channel LiteFlow uses for
// its slow path (paper §4.1–4.2): training data accumulates in a kernel-side
// buffer and is flushed to the userspace service in batches every T, and the
// userspace service pushes snapshot installs and fidelity-evaluation queries
// back down.
//
// Costs are charged to the host's ksim CPU: each flush pays one cross-space
// transition (softirq) plus per-message and per-byte copy costs (kernel
// time). This makes the batching economics of Figure 14 measurable: small T
// behaves like the CCP baseline's per-update switching; large T starves the
// tuner of fresh data.
package netlink

import (
	"github.com/liteflow-sim/liteflow/internal/fault"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
)

// MsgKind is the record type of a kernel→userspace message.
type MsgKind int

// KindSample carries newly collected training data for online adaptation.
const KindSample MsgKind = 0

// Message is one record crossing the boundary.
type Message struct {
	Kind MsgKind
	Data []float64   // feature/label payload (already dequantized)
	At   netsim.Time // kernel-side collection time
}

// wireBytes estimates the message's on-wire size: nlmsghdr-ish overhead plus
// 8 bytes per value.
func (m Message) wireBytes() int { return 16 + 8*len(m.Data) }

// Stats counts channel activity for experiment reporting. The channel counts
// into its own Stats, and its scope exports each field as a counter view.
type Stats struct {
	Flushes     int64
	Messages    int64
	Bytes       int64
	Dropped     int64 // messages discarded by the bounded kernel buffer
	Downcalls   int64 // userspace→kernel deliveries
	DownBytes   int64
	Undelivered int64 // batched messages that fired with no delivery callback
}

// register exports the channel's counts on sc.
func (c *Channel) register(sc obs.Scope) {
	st := &c.st
	sc.CounterOf("liteflow_netlink_flushes_total", "kernel→userspace batch deliveries", &st.Flushes)
	sc.CounterOf("liteflow_netlink_messages_total", "messages delivered to userspace", &st.Messages)
	sc.CounterOf("liteflow_netlink_bytes_total", "wire bytes delivered to userspace", &st.Bytes)
	sc.CounterOf("liteflow_netlink_dropped_total", "messages displaced by the bounded kernel buffer", &st.Dropped)
	sc.CounterOf("liteflow_netlink_downcalls_total", "userspace→kernel transfers", &st.Downcalls)
	sc.CounterOf("liteflow_netlink_down_bytes_total", "userspace→kernel payload bytes", &st.DownBytes)
	sc.CounterOf("liteflow_netlink_undelivered_total", "batched messages discarded because no delivery callback was installed", &st.Undelivered)
}

// maxBuffer bounds the kernel-side accumulation buffer in messages; overflow
// drops the oldest data first (the kernel cannot block the datapath on a slow
// consumer).
const maxBuffer = 4096

// Channel is a simulated netlink socket pair bound to one host CPU.
type Channel struct {
	eng   *netsim.Engine
	cpu   *ksim.CPU
	costs ksim.Costs

	buf     []Message
	deliver func(batch []Message)

	inj *fault.Injector

	sc obs.Scope
	st Stats

	ticking  bool
	interval netsim.Time
}

// NewChannel returns a channel delivering kernel batches to deliver. The
// callback runs in virtual time after the cross-space latency has elapsed;
// it may also be installed later with SetDeliver (batches that fire while no
// callback is installed are counted and discarded, never a panic).
// opt.WithScope exports channel metrics and batch-delivery trace events
// (omitted, telemetry is a no-op but Stats still counts). SetFaults attaches
// a fault injector.
func NewChannel(eng *netsim.Engine, cpu *ksim.CPU, costs ksim.Costs, deliver func(batch []Message), options ...opt.Option) *Channel {
	c := &Channel{eng: eng, cpu: cpu, costs: costs, deliver: deliver,
		sc: opt.Resolve(options).Scope}
	c.register(c.sc)
	return c
}

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() Stats { return c.st }

// SetFaults attaches the one fault injector of this kernel↔userspace
// boundary (nil injects nothing). The channel draws message drop/corruption
// and batch delay/reorder from it at flush time; the slow path behind the
// channel — a core.Service or a fleet member — reads its outages and
// snapshot build failures from Faults.
func (c *Channel) SetFaults(inj *fault.Injector) { c.inj = inj }

// Faults returns the channel's fault injector (nil when none is attached).
func (c *Channel) Faults() *fault.Injector { return c.inj }

// SetDeliver replaces the kernel-batch delivery callback. The userspace
// service installs itself here after construction.
//
// Replacement is safe with respect to in-flight flushes: a batch whose
// cross-space latency is still elapsing is delivered to the callback
// installed at *delivery* time, not at flush time, and a batch that fires
// with no callback installed is counted in
// liteflow_netlink_undelivered_total and discarded rather than panicking.
// Like the rest of the simulator, the channel is single-goroutine: SetDeliver
// must be called from simulation context (a test asserts this contract).
func (c *Channel) SetDeliver(fn func(batch []Message)) { c.deliver = fn }

// Push appends a message to the kernel-side batch buffer. Buffer appends are
// in-kernel memory writes: free in this model (their cost is subsumed by the
// per-packet processing charge already paid by the datapath).
func (c *Channel) Push(m Message) {
	if len(c.buf) >= maxBuffer {
		// Drop oldest: adaptation prefers fresh signal.
		copy(c.buf, c.buf[1:])
		c.buf = c.buf[:len(c.buf)-1]
		c.st.Dropped++
		c.sc.Event("netlink", "drop", c.eng.Now())
	}
	c.buf = append(c.buf, m)
}

// Flush sends the accumulated batch to userspace now, charging the CPU for
// one cross-space transition plus copy costs, and invoking the delivery
// callback after the transition latency. An empty buffer flush is free.
// With a fault injector attached, per-message drop/corruption and per-batch
// reorder/extra-delay faults apply here — after the kernel has paid the
// flush costs, like a lossy boundary would behave.
func (c *Channel) Flush() {
	if len(c.buf) == 0 {
		return
	}
	batch := c.buf
	c.buf = nil
	now := c.eng.Now()

	if c.inj != nil {
		kept := batch[:0]
		for _, m := range batch {
			if c.inj.DropMessage(now) {
				continue
			}
			c.inj.CorruptMessage(now, m.Data)
			kept = append(kept, m)
		}
		batch = kept
		if perm := c.inj.BatchPermutation(now, len(batch)); perm != nil {
			shuffled := make([]Message, len(batch))
			for i, p := range perm {
				shuffled[i] = batch[p]
			}
			batch = shuffled
		}
		if len(batch) == 0 {
			return // whole batch lost; the flush costs below were never paid
		}
	}

	bytes := 0
	for _, m := range batch {
		bytes += m.wireBytes()
	}
	c.st.Flushes++
	c.st.Messages += int64(len(batch))
	c.st.Bytes += int64(bytes)
	c.sc.Event2("netlink", "flush", now, "msgs", int64(len(batch)), "bytes", int64(bytes))

	// One softirq-visible wakeup per flush; copy work scales with volume.
	c.cpu.Charge(ksim.SoftIRQ, c.costs.CrossSpace)
	c.cpu.Charge(ksim.Kernel, c.costs.NetlinkPerMsg+netsim.Time(bytes)*c.costs.NetlinkPerByte)

	delay := c.costs.CrossSpaceLatency + c.cpu.QueueDelay()
	if c.inj != nil {
		delay += netsim.Time(c.inj.DeliveryDelay(now))
	}
	// The whole kernel→user flight as a span: flush to delivery, including
	// queueing and injected delay.
	c.sc.Span1("netlink", "flush_flight", now, int64(delay), "msgs", int64(len(batch)))
	c.eng.After(delay, func() {
		// Resolve the callback at delivery time so SetDeliver replacements
		// apply to in-flight batches, and a missing callback degrades to a
		// counted discard instead of a panic.
		if fn := c.deliver; fn != nil {
			fn(batch)
			return
		}
		c.st.Undelivered += int64(len(batch))
		c.sc.Event1("netlink", "undelivered", c.eng.Now(), "msgs", int64(len(batch)))
	})
}

// StartBatching schedules periodic flushes every interval — the paper's
// batch data delivery interval T. Calling it again re-arms with the new
// interval; StopBatching cancels.
func (c *Channel) StartBatching(interval netsim.Time) {
	if interval <= 0 {
		panic("netlink: batch interval must be positive")
	}
	c.interval = interval
	if c.ticking {
		return
	}
	c.ticking = true
	c.tick()
}

// StopBatching stops the periodic flushing after the current tick.
func (c *Channel) StopBatching() { c.ticking = false }

func (c *Channel) tick() {
	if !c.ticking {
		return
	}
	c.eng.After(c.interval, func() {
		if !c.ticking {
			return
		}
		c.Flush()
		c.tick()
	})
}

// SendToKernel models a userspace→kernel transfer of payloadBytes (snapshot
// parameters, evaluation queries), invoking done in the kernel after costs
// and latency. The transition is softirq work; the copy is kernel work. The
// second of the paper's netlink message types (§4.2: "two types of messages are
// transferred"), snapshot outputs for necessity evaluation, is this downcall
// and its reply, not a Message kind.
func (c *Channel) SendToKernel(payloadBytes int, done func()) {
	c.st.Downcalls++
	c.st.DownBytes += int64(payloadBytes)
	c.sc.Event1("netlink", "downcall", c.eng.Now(), "bytes", int64(payloadBytes))
	c.cpu.Charge(ksim.SoftIRQ, c.costs.CrossSpace)
	c.cpu.Charge(ksim.Kernel, c.costs.NetlinkPerMsg+netsim.Time(payloadBytes)*c.costs.NetlinkPerByte)
	delay := c.costs.CrossSpaceLatency + c.cpu.QueueDelay()
	// The user→kernel flight as a span: downcall to kernel-side completion.
	c.sc.Span1("netlink", "downcall_flight", c.eng.Now(), int64(delay), "bytes", int64(payloadBytes))
	c.eng.After(delay, func() {
		if done != nil {
			done()
		}
	})
}
