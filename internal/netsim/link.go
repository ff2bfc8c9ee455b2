package netsim

import (
	"github.com/liteflow-sim/liteflow/internal/obs"
)

// Handler consumes packets at the far end of a link. Hosts and switches
// implement it.
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// HandlePacket calls f(p).
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }

// Link is a unidirectional link: serialization at Rate, then propagation
// Delay, feeding the remote Handler. Packets that arrive while the link is
// transmitting wait in the attached Queue.
type Link struct {
	eng   *Engine
	rate  int64 // bits per second
	delay Time
	queue Queue

	txPkt *Packet // the packet in serialization; nil while the link is idle

	// Wireless-style random loss: a packet that finishes serialization is
	// corrupted (dropped before propagation) with probability lossRate.
	// lossRNG is a private xorshift so the draw sequence depends only on
	// this link's own packet order — deterministic per §4d under any
	// partitioning.
	lossRate float64
	lossRNG  uint64

	// Cumulative counters for experiment accounting; the scope exports the
	// last three.
	txPackets, txBytes              int64
	lossDrops, queueDrops, ecnMarks int64

	sc obs.Scope

	txDoneFn func() // bound once in NewLink, so serialization allocates nothing

	// The receiving end, what the destination partition touches on every
	// delivery: packets in propagation, in delivery order, and the target
	// (fly.to). fly's partition is the one the link delivers into; it differs
	// from eng exactly when the link crosses partitions (BindRemote).
	fly Ring
}

// NewLink creates a link with transmission rate rateBps (bits/second),
// one-way propagation delay, and buffering discipline q (nil = an effectively
// unbounded drop-tail). It panics on a non-positive rate: a zero-rate link
// would never drain and silently hang the simulation. An optional scope
// exports queue drop and ECN mark telemetry; omitted, telemetry is a no-op.
func NewLink(eng *Engine, to Handler, rateBps int64, delay Time, q Queue, sc ...obs.Scope) *Link {
	if rateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	if q == nil {
		q = NewDropTail(1 << 30)
	}
	l := &Link{eng: eng, rate: rateBps, delay: delay, queue: q}
	l.txDoneFn = l.txDone
	l.fly.Init(eng)
	l.fly.to = to
	if len(sc) > 0 {
		l.sc = sc[0]
	}
	l.sc.CounterOf("liteflow_net_queue_drops_total",
		"packets rejected by a full egress queue", &l.queueDrops)
	l.sc.CounterOf("liteflow_net_ecn_marks_total",
		"packets CE-marked on enqueue", &l.ecnMarks)
	l.sc.CounterOf("liteflow_net_loss_drops_total",
		"packets corrupted by configured link loss", &l.lossDrops)
	return l
}

// SetLoss configures wireless-style random loss: each packet that finishes
// serialization is independently dropped with probability rate before
// propagation (the bits were sent, then corrupted). seed initializes the
// link-private PRNG so the drop pattern is reproducible and independent of
// partition scheduling. rate 0 disables loss; rates outside [0,1) panic.
func (l *Link) SetLoss(rate float64, seed int64) {
	if rate < 0 || rate >= 1 {
		panic("netsim: loss rate must be in [0, 1)")
	}
	l.lossRate = rate
	// splitmix64 of the seed so adjacent seeds give uncorrelated streams;
	// the state must be non-zero for xorshift.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	l.lossRNG = z
}

// LossDrops returns the cumulative count of packets dropped by SetLoss.
func (l *Link) LossDrops() int64 { return l.lossDrops }

// lose draws the per-packet corruption coin (xorshift64*, top 53 bits as a
// uniform float in [0,1)). Zero-alloc and branch-cheap on loss-free links.
func (l *Link) lose() bool {
	if l.lossRate == 0 {
		return false
	}
	x := l.lossRNG
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.lossRNG = x
	u := float64(x>>11) / (1 << 53)
	return u < l.lossRate
}

// Engine returns the partition view owning this link (serialization and
// propagation are timed on it). Experiments use it to place measurement
// ticks in the partition that owns the sampled state.
func (l *Link) Engine() *Engine { return l.eng }

// BindRemote declares that the link's receiving end lives in dst's
// partition: deliveries are routed through the cross-partition mailbox and
// the link's propagation delay joins the conservative-lookahead minimum. On
// a classic engine, or when dst is the link's own partition, it is a no-op —
// topology builders call it unconditionally. A cross-partition link must
// have positive delay: zero-delay handoff would give the window loop zero
// lookahead and stall it. BindRemote returns l for wiring convenience.
func (l *Link) BindRemote(dst *Engine) *Link {
	if dst == nil || dst == l.eng || !l.eng.co.partitioned {
		return l
	}
	if dst.co != l.eng.co {
		panic("netsim: BindRemote across unrelated engines")
	}
	if l.delay <= 0 {
		panic("netsim: cross-partition link must have positive delay (conservative lookahead)")
	}
	if l.fly.n > 0 {
		// The ring's head is armed in the old destination's heap.
		panic("netsim: BindRemote with packets in propagation")
	}
	l.fly.eng = dst
	co := l.eng.co
	if co.lookahead == 0 || l.delay < co.lookahead {
		co.lookahead = l.delay
	}
	return l
}

// Rate returns the link rate in bits per second.
func (l *Link) Rate() int64 { return l.rate }

// SetRate changes the link rate (bits per second), effective for packets
// serialized after the call — the mechanism for degraded-link experiments.
// It panics on non-positive rates like NewLink.
func (l *Link) SetRate(bps int64) {
	if bps <= 0 {
		panic("netsim: link rate must be positive")
	}
	l.rate = bps
}

// Queue returns the attached queueing discipline, for inspection (queue
// length sampling in the Figure 1b experiment) or reconfiguration.
func (l *Link) Queue() Queue { return l.queue }

// SetTarget redirects delivered packets, those in propagation included, to h.
// Used by topology builders that wire links before all nodes exist.
func (l *Link) SetTarget(h Handler) { l.fly.to = h }

// TxBytes returns the cumulative bytes fully serialized onto the wire.
func (l *Link) TxBytes() int64 { return l.txBytes }

// TxPackets returns the cumulative packet count serialized onto the wire.
func (l *Link) TxPackets() int64 { return l.txPackets }

// TxTime returns the serialization time for a packet of size bytes.
func (l *Link) TxTime(size int) Time {
	return Time(int64(size) * 8 * int64(Second) / l.rate)
}

// Send enqueues p for transmission, dropping it if the queue is full. Send
// must be called from the link's own partition (entities hand packets across
// partitions only by being the target of a link).
func (l *Link) Send(p *Packet) {
	l.eng.checkOwner()
	p.EnqAt = l.eng.Now()
	ceBefore := p.CE
	if !l.queue.Enqueue(p) {
		l.queueDrops++
		l.sc.Event2("net", "drop", p.EnqAt, "flow", int64(p.Flow), "bytes", int64(p.Size))
		FreePacket(p) // dropped
		return
	}
	if p.CE && !ceBefore {
		l.ecnMarks++
		l.sc.Event1("net", "ecn_mark", p.EnqAt, "flow", int64(p.Flow))
	}
	if l.txPkt == nil {
		l.startNext()
	}
}

// startNext begins serializing the head-of-queue packet, if any.
func (l *Link) startNext() {
	if l.txPkt = l.queue.Dequeue(); l.txPkt != nil {
		l.eng.push(event{at: l.eng.now + l.TxTime(l.txPkt.Size), fn: l.txDoneFn})
	}
}

// txDone retires one serialization: account the transmit, launch propagation
// (in parallel with the next serialization) and start the next packet.
// Local deliveries join the link's ring at once; cross-partition deliveries
// go to the outbox, and join it when the destination partition drains the
// outbox at the next window barrier.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPackets++
	l.txBytes += int64(p.Size)
	if l.lose() {
		l.lossDrops++
		l.sc.Event2("net", "loss", l.eng.now, "flow", int64(p.Flow), "bytes", int64(p.Size))
		FreePacket(p)
		l.startNext()
		return
	}
	at := l.eng.now + l.delay
	if l.fly.eng != l.eng {
		l.eng.outbox = append(l.eng.outbox, handoff{l: l, p: p, at: at})
	} else {
		l.fly.land(at, nil, p)
	}
	l.startNext()
}

// Pipe is a bidirectional connection built from two independent links. It is
// a convenience for dumbbell topologies and host attachments.
type Pipe struct {
	AtoB *Link
	BtoA *Link
}

// NewPipe wires a ↔ b with symmetric rate, delay and fresh drop-tail queues
// of capBytes each.
func NewPipe(eng *Engine, a, b Handler, rateBps int64, delay Time, capBytes int) *Pipe {
	return &Pipe{
		AtoB: NewLink(eng, b, rateBps, delay, NewDropTail(capBytes)),
		BtoA: NewLink(eng, a, rateBps, delay, NewDropTail(capBytes)),
	}
}
