package tcp

import (
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// Host is an end system: it owns an optional CPU model, an egress link into
// the network, and demultiplexes arriving packets to transport endpoints by
// flow ID. When a CPU is attached, every packet pays kernel processing costs
// before reaching the transport — the mechanism by which cross-space
// communication overhead starves the datapath (paper §2.2).
type Host struct {
	ID  int
	Eng *netsim.Engine

	// CPU, when non-nil, charges per-packet processing costs and delays or
	// drops packets under overload.
	CPU   *ksim.CPU
	Costs ksim.Costs

	egress    *netsim.Link
	senders   map[netsim.FlowID]*Sender
	receivers map[netsim.FlowID]*Receiver

	// sendFn/dispatchFn are the CPU-completion callbacks, bound once so
	// per-packet submission allocates no method-value closure.
	sendFn     func(*netsim.Packet)
	dispatchFn func(*netsim.Packet)

	// RxDropped counts packets rejected by the saturated CPU.
	RxDropped int64
	TxDropped int64
}

// NewHost returns a host with the given node ID. Attach an egress link with
// SetEgress and optionally a CPU with AttachCPU before starting flows.
func NewHost(eng *netsim.Engine, id int) *Host {
	h := &Host{
		ID:        id,
		Eng:       eng,
		senders:   make(map[netsim.FlowID]*Sender),
		receivers: make(map[netsim.FlowID]*Receiver),
	}
	h.sendFn = h.egressSend
	h.dispatchFn = h.dispatch
	return h
}

// SetEgress sets the host's link into the network.
func (h *Host) SetEgress(l *netsim.Link) { h.egress = l }

// Egress returns the host's network link.
func (h *Host) Egress() *netsim.Link { return h.egress }

// AttachCPU enables CPU cost modeling with the given cost table.
func (h *Host) AttachCPU(cpu *ksim.CPU, costs ksim.Costs) {
	h.CPU = cpu
	h.Costs = costs
}

// egressSend is the TX CPU-completion callback.
func (h *Host) egressSend(p *netsim.Packet) { h.egress.Send(p) }

// Transmit pushes a packet into the network, paying TX CPU cost when a CPU
// is attached. Overloaded CPUs drop (and recycle) the transmission.
func (h *Host) Transmit(p *netsim.Packet) {
	if h.egress == nil {
		panic("tcp: host has no egress link")
	}
	if h.CPU == nil {
		h.egress.Send(p)
		return
	}
	if !h.CPU.SubmitPacket(ksim.Kernel, h.Costs.PacketTx, h.sendFn, p) {
		h.TxDropped++
		netsim.FreePacket(p)
	}
}

// HandlePacket implements netsim.Handler: it charges RX processing to the
// CPU (softirq, as NET_RX) and then delivers to the owning endpoint.
func (h *Host) HandlePacket(p *netsim.Packet) {
	if h.CPU == nil {
		h.dispatch(p)
		return
	}
	if !h.CPU.SubmitPacket(ksim.SoftIRQ, h.Costs.PacketRx, h.dispatchFn, p) {
		h.RxDropped++
		netsim.FreePacket(p)
		return
	}
	// Sys-side protocol work for the accepted packet (dropped packets never
	// reach the TCP state machine, so they cost only the softirq attempt).
	h.CPU.Charge(ksim.Kernel, h.Costs.PacketRxSys)
}

// dispatch demultiplexes p to its endpoint and recycles it once the handler
// returns: the host terminally consumes every arriving packet (endpoints
// respond with freshly allocated packets, never by re-sending p).
func (h *Host) dispatch(p *netsim.Packet) {
	if p.Ack {
		if s, ok := h.senders[p.Flow]; ok {
			s.handleAck(p)
		}
	} else if r, ok := h.receivers[p.Flow]; ok {
		r.handleData(p)
	}
	netsim.FreePacket(p)
}

var _ netsim.Handler = (*Host)(nil)

// registerSender attaches a sender to the host's demux table.
func (h *Host) registerSender(s *Sender) { h.senders[s.Flow] = s }

// RegisterReceiver attaches a receiver to the host's demux table.
func (h *Host) RegisterReceiver(r *Receiver) { h.receivers[r.Flow] = r }

// UDPSource generates constant-bit-rate background traffic — the emulated
// congestion of the paper's testbed experiments (0.1 Gbps UDP).
type UDPSource struct {
	Host    *Host
	Flow    netsim.FlowID
	Dst     int
	Bps     int64
	PktSize int

	sending *netsim.Ticker
	paused  bool // the pending step re-checks the rate instead of sending
}

// NewUDPSource returns a CBR source sending from h to dst at bps.
func NewUDPSource(h *Host, flow netsim.FlowID, dst int, bps int64) *UDPSource {
	u := &UDPSource{Host: h, Flow: flow, Dst: dst, Bps: bps, PktSize: netsim.HeaderBytes + netsim.MSS}
	u.sending = netsim.NewTicker(h.Eng, u.send)
	return u
}

// Start begins transmission; SetRate adjusts the rate live (used by the
// traffic-pattern switcher in the adaptation experiments).
func (u *UDPSource) Start() {
	if !u.sending.Running() {
		u.sending.Start(u.gap())
	}
}

// Stop halts transmission; the pending packet is not sent.
func (u *UDPSource) Stop() { u.sending.Stop() }

// SetRate changes the sending rate; 0 pauses without stopping the loop.
func (u *UDPSource) SetRate(bps int64) { u.Bps = bps }

// gap returns the time to the next step at the current rate. A paused
// source (Bps ≤ 0) re-checks its rate every millisecond and sends nothing
// when it does.
func (u *UDPSource) gap() netsim.Time {
	u.paused = u.Bps <= 0
	if u.paused {
		return netsim.Millisecond
	}
	return max(netsim.Time(int64(u.PktSize)*8*int64(netsim.Second)/u.Bps), 1)
}

// send transmits one CBR packet, unless the step was scheduled while the
// source was paused. Packets come from the simulation's free list, so the
// steady sending loop allocates nothing.
func (u *UDPSource) send() (netsim.Time, bool) {
	if !u.paused {
		p := u.Host.Eng.AllocPacket()
		p.Flow, p.Dst = u.Flow, u.Dst
		p.Size = u.PktSize
		u.Host.Transmit(p)
	}
	return u.gap(), true
}

// BurstyUDP drives a UDPSource between two rates on a fixed half-period —
// the time-varying background congestion real bottlenecks exhibit. Stale
// (coarse-interval) controllers keep mis-tracking it, which is exactly the
// responsiveness penalty of §2.2.
type BurstyUDP struct {
	Src        *UDPSource
	Low, High  int64
	HalfPeriod netsim.Time

	toggling *netsim.Ticker
	high     bool
}

// NewBurstyUDP wraps src, toggling between low and high every halfPeriod.
func NewBurstyUDP(src *UDPSource, low, high int64, halfPeriod netsim.Time) *BurstyUDP {
	b := &BurstyUDP{Src: src, Low: low, High: high, HalfPeriod: halfPeriod}
	b.toggling = netsim.NewTicker(src.Host.Eng, b.toggle)
	return b
}

// Start begins in the high phase and runs until Stop.
func (b *BurstyUDP) Start() {
	if b.toggling.Running() {
		return
	}
	b.high = true
	b.Src.SetRate(b.High)
	b.Src.Start()
	b.toggling.Start(b.HalfPeriod)
}

// Stop halts toggling and the underlying source.
func (b *BurstyUDP) Stop() {
	b.toggling.Stop()
	b.Src.Stop()
}

func (b *BurstyUDP) toggle() (netsim.Time, bool) {
	b.high = !b.high
	if b.high {
		b.Src.SetRate(b.High)
	} else {
		b.Src.SetRate(b.Low)
	}
	return b.HalfPeriod, true
}
