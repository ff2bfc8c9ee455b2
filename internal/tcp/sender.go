package tcp

import (
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// segment is one outstanding MSS-sized unit of the flow's byte stream.
// Segments are recycled through the sender's freelist once every reference
// (ordered outstanding list, retransmission queue) has released them.
type segment struct {
	seq    int64
	size   int // payload bytes
	tag    int64
	sentAt netsim.Time
	rtx    int // retransmission count
	acked  bool
	lost   bool // marked lost, awaiting retransmission
	fin    bool
	inOut  bool // referenced by s.outstanding
	inRtx  bool // referenced by s.rtxQueue
}

// appMsg is one application message pushed onto an app-limited sender:
// bytes [start, end) of the stream, with an opaque tag carried by the first
// segment (segments never span a message boundary, so exactly one segment
// starts at start and the tag survives retransmission).
type appMsg struct {
	start, end int64
	tag        int64
}

// Sender transmits a flow with pacing, a congestion window, selective-repeat
// retransmission (per-segment ACKs, dup-threshold and RTO loss detection),
// and SRTT/delivery-rate estimation. It is driven entirely by simulator
// events. The steady-state send/ACK loop is allocation-free: packets come
// from the netsim pool, segments from a per-sender freelist, and the pacing
// and RTO callbacks are bound once at construction.
type Sender struct {
	Host *Host
	Flow netsim.FlowID
	Dst  int
	// Size is the flow length in bytes; 0 means unbounded (long-running).
	Size int64
	CC   CongestionControl

	// OnComplete, when set, fires once when every byte has been
	// acknowledged, with the flow completion time.
	OnComplete func(fct netsim.Time)

	// OnAcked, when set, fires on every newly acknowledged segment with the
	// cumulative payload bytes acknowledged. App-limited senders (Push) use
	// it to observe upload progress on the sender's own partition.
	OnAcked func(ackedBytes int64, now netsim.Time)

	// DupThresh is the reordering tolerance in segments before a hole is
	// declared lost (fast retransmit). Defaults to 3.
	DupThresh int
	// MinRTO bounds the retransmission timeout from below. Defaults to the
	// Linux kernel's 200 ms; anything close to the path RTT causes
	// spurious timeouts that collapse window-based controllers.
	MinRTO netsim.Time

	// Prio tags every data packet with a priority band (flow scheduling:
	// the output enforcer writes the NN's predicted priority here).
	Prio int
	// Path pins every data packet to an explicit switch path (load
	// balancing: XPath-style path control). nil uses table routing.
	Path []int

	started   bool
	startAt   netsim.Time
	completed bool

	// App-limited mode (Push): the flow is long-lived and the stream grows
	// by discrete messages instead of being fully available up front.
	appLimited bool
	appBytes   int64    // stream length so far: sum of all pushed messages
	msgs       []appMsg // pending + in-flight messages; live region starts at msgHead
	msgHead    int

	nextSeq     int64
	outstanding []*segment // ordered by seq; live region starts at outHead
	outHead     int
	bySeq       map[int64]*segment
	rtxQueue    []*segment
	segFree     []*segment
	inflight    int
	ackedBytes  int64
	highestAck  int64 // highest segment seq acknowledged

	srtt   netsim.Time
	rttvar netsim.Time
	pacing bool

	// The RTO is deadline-based: at most one timer event is outstanding;
	// each ACK only moves rtoDeadline forward, and a timer that fires early
	// re-arms itself for the remainder — no per-ACK closure allocation.
	rtoDeadline netsim.Time
	rtoPending  bool // a fire event is scheduled in the engine
	rtoArm      bool

	sendLoopFn func()
	rtoFireFn  func()

	// Delivery-rate estimation window.
	rateWinStart netsim.Time
	rateWinBytes int64
	deliveryRate int64

	// Counters for experiment reporting.
	Retransmits int64
	Timeouts    int64
}

// NewSender creates a sender for flow → dst on host h governed by cc, and
// registers it with the host's demux table.
func NewSender(h *Host, flow netsim.FlowID, dst int, size int64, cc CongestionControl) *Sender {
	s := &Sender{
		Host: h, Flow: flow, Dst: dst, Size: size, CC: cc,
		DupThresh: 3,
		MinRTO:    200 * netsim.Millisecond,
		bySeq:     make(map[int64]*segment),
	}
	s.sendLoopFn = s.sendLoop
	s.rtoFireFn = s.fireRTO
	h.registerSender(s)
	return s
}

// Start begins transmission.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startAt = s.Host.Eng.Now()
	s.rateWinStart = s.startAt
	s.CC.Start(s.startAt)
	// An app-limited sender with nothing pushed yet stays unarmed: with a
	// million idle sessions, a 200 ms timer per connection would dominate
	// the event heap. Push re-arms when data arrives.
	if s.remaining() || s.inflight > 0 {
		s.armRTO()
	}
	s.maybeSend()
}

// MarkAppLimited switches an unbounded sender into app-limited mode before
// any data exists. A Size==0 sender is otherwise an infinite source the
// moment it starts; a connection that will be driven by Push must be marked
// (or pushed to) before Start, or it transmits phantom data.
func (s *Sender) MarkAppLimited() {
	if s.Size != 0 {
		panic("tcp: MarkAppLimited requires an unbounded sender (Size == 0)")
	}
	s.appLimited = true
}

// Push appends an n-byte application message to an app-limited stream. The
// message's first segment carries tag (echoed on retransmission, surfaced
// exactly once by Receiver.OnApp); segments never span message boundaries.
// Push requires Size == 0 — the stream has no flow length, it grows message
// by message — and must run on the sender host's partition, which is free at
// setup time and inside any callback delivered to this host.
func (s *Sender) Push(n int64, tag int64) {
	if n <= 0 {
		panic("tcp: Push needs a positive message size")
	}
	if s.Size != 0 {
		panic("tcp: Push requires an unbounded sender (Size == 0)")
	}
	s.appLimited = true
	start := s.appBytes
	s.appBytes += n
	s.msgs = append(s.msgs, appMsg{start: start, end: s.appBytes, tag: tag})
	if s.started {
		s.armRTO()
		s.maybeSend()
	}
}

// AckedBytes returns the cumulative payload bytes acknowledged.
func (s *Sender) AckedBytes() int64 { return s.ackedBytes }

// Completed reports whether the whole flow has been acknowledged.
func (s *Sender) Completed() bool { return s.completed }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() netsim.Time { return s.srtt }

// Inflight returns the bytes currently outstanding.
func (s *Sender) Inflight() int { return s.inflight }

// remaining reports whether new (never-sent) data exists.
func (s *Sender) remaining() bool {
	if s.appLimited {
		return s.nextSeq < s.appBytes
	}
	return s.Size == 0 || s.nextSeq < s.Size
}

// allocSegment takes a zeroed segment from the freelist (or the heap).
func (s *Sender) allocSegment() *segment {
	if n := len(s.segFree); n > 0 {
		seg := s.segFree[n-1]
		s.segFree[n-1] = nil
		s.segFree = s.segFree[:n-1]
		*seg = segment{}
		return seg
	}
	return &segment{}
}

// freeSegment recycles a segment no longer referenced anywhere.
func (s *Sender) freeSegment(seg *segment) {
	s.segFree = append(s.segFree, seg)
}

// maybeSend kicks the pacing loop if it is idle and work is available.
func (s *Sender) maybeSend() {
	if s.pacing || s.completed {
		return
	}
	s.pacing = true
	s.sendLoop()
}

func (s *Sender) sendLoop() {
	if s.completed {
		s.pacing = false
		return
	}
	// Anything to send?
	if len(s.rtxQueue) == 0 && !s.remaining() {
		s.pacing = false
		return
	}
	// Window check.
	if s.inflight+netsim.MSS > s.CC.CwndBytes() {
		s.pacing = false // resumed by the next ACK
		return
	}
	seg := s.pickSegment()
	if seg == nil {
		s.pacing = false
		return
	}
	s.transmit(seg)

	rate := s.CC.PacingRate()
	if rate < 1000 {
		rate = 1000 // floor: one packet per ~12 s, keeps the loop alive
	}
	wire := int64(seg.size+netsim.HeaderBytes) * 8
	gap := netsim.Time(wire * int64(netsim.Second) / rate)
	s.Host.Eng.After(gap, s.sendLoopFn)
}

// pickSegment returns the next segment to transmit: retransmissions first.
func (s *Sender) pickSegment() *segment {
	for len(s.rtxQueue) > 0 {
		seg := s.rtxQueue[0]
		s.rtxQueue = s.rtxQueue[1:]
		seg.inRtx = false
		if seg.acked {
			// Acked while waiting for retransmission; recycle if the
			// outstanding list has also released it.
			if !seg.inOut {
				s.freeSegment(seg)
			}
			continue
		}
		seg.rtx++
		s.Retransmits++
		return seg
	}
	if !s.remaining() {
		return nil
	}
	size := netsim.MSS
	var tag int64
	if s.appLimited {
		// Segments respect message boundaries so the tag lands on the
		// unique segment starting the message.
		m := &s.msgs[s.msgHead]
		if s.nextSeq == m.start {
			tag = m.tag
		}
		if rem := m.end - s.nextSeq; rem < int64(size) {
			size = int(rem)
		}
		if s.nextSeq+int64(size) >= m.end {
			s.msgHead++
			if s.msgHead > 32 && s.msgHead*2 >= len(s.msgs) {
				n := copy(s.msgs, s.msgs[s.msgHead:])
				s.msgs = s.msgs[:n]
				s.msgHead = 0
			}
		}
	} else if s.Size > 0 && s.Size-s.nextSeq < int64(size) {
		size = int(s.Size - s.nextSeq)
	}
	seg := s.allocSegment()
	seg.seq, seg.size = s.nextSeq, size
	seg.tag = tag
	if s.Size > 0 && s.nextSeq+int64(size) >= s.Size {
		seg.fin = true
	}
	s.nextSeq += int64(size)
	seg.inOut = true
	s.outstanding = append(s.outstanding, seg)
	s.bySeq[seg.seq] = seg
	return seg
}

func (s *Sender) transmit(seg *segment) {
	now := s.Host.Eng.Now()
	seg.sentAt = now
	seg.lost = false
	s.inflight += seg.size
	p := netsim.AllocPacket()
	p.Flow, p.Src, p.Dst = s.Flow, s.Host.ID, s.Dst
	p.Seq, p.Size = seg.seq, seg.size+netsim.HeaderBytes
	p.FIN = seg.fin
	p.App = seg.tag
	p.SentAt = now
	p.Prio = s.Prio
	p.Path = s.Path
	s.Host.Transmit(p)
}

// handleAck processes a selective acknowledgment for one segment.
func (s *Sender) handleAck(p *netsim.Packet) {
	if s.completed {
		return
	}
	seg, ok := s.bySeq[p.AckNo]
	if !ok || seg.acked {
		return
	}
	now := s.Host.Eng.Now()
	seg.acked = true
	delete(s.bySeq, seg.seq)
	if !seg.lost {
		s.inflight -= seg.size
	}
	s.ackedBytes += int64(seg.size)
	if seg.seq > s.highestAck {
		s.highestAck = seg.seq
	}

	// RTT sampling (Karn's rule: skip retransmitted segments).
	var rtt netsim.Time
	if seg.rtx == 0 {
		rtt = now - seg.sentAt
		if s.srtt == 0 {
			s.srtt = rtt
			s.rttvar = rtt / 2
		} else {
			diff := s.srtt - rtt
			if diff < 0 {
				diff = -diff
			}
			s.rttvar = (3*s.rttvar + diff) / 4
			s.srtt = (7*s.srtt + rtt) / 8
		}
	}

	// Delivery-rate estimation over an SRTT-wide window.
	s.rateWinBytes += int64(seg.size)
	win := s.srtt
	if win < netsim.Millisecond {
		win = netsim.Millisecond
	}
	if now-s.rateWinStart >= win {
		s.deliveryRate = s.rateWinBytes * 8 * int64(netsim.Second) / int64(now-s.rateWinStart)
		s.rateWinStart = now
		s.rateWinBytes = 0
	}

	s.armRTO()
	s.detectLoss(seg)

	s.CC.OnAck(AckInfo{
		Now: now, RTT: rtt, SRTT: s.srtt,
		AckedBytes: seg.size, ECE: p.ECE,
		Inflight: s.inflight, DeliveryRate: s.deliveryRate,
	})

	s.pruneOutstanding()

	if s.OnAcked != nil {
		s.OnAcked(s.ackedBytes, now)
	}

	if s.Size > 0 && s.ackedBytes >= s.Size {
		s.completed = true
		if s.OnComplete != nil {
			s.OnComplete(now - s.startAt)
		}
		return
	}
	s.maybeSend()
}

// detectLoss marks outstanding segments that precede the just-acked segment
// by more than DupThresh segments (and were sent earlier) as lost. The walk
// stops at the first segment at or past the threshold: outstanding is
// ordered by seq (a retransmission keeps its segment's slot), so no later
// one can qualify.
func (s *Sender) detectLoss(acked *segment) {
	threshold := s.highestAck - int64(s.DupThresh*netsim.MSS)
	lost := 0
	for _, seg := range s.outstanding[s.outHead:] {
		if seg.seq >= threshold {
			break
		}
		if seg.acked || seg.lost {
			continue
		}
		if seg.sentAt <= acked.sentAt {
			seg.lost = true
			s.inflight -= seg.size
			lost += seg.size
			seg.inRtx = true
			s.rtxQueue = append(s.rtxQueue, seg)
		}
	}
	if lost > 0 {
		s.CC.OnLoss(LossInfo{Now: s.Host.Eng.Now(), LostBytes: lost})
		s.maybeSend()
	}
}

// pruneOutstanding drops acked segments from the front of the ordered list,
// recycling the ones the retransmission queue no longer references. The
// backing array is compacted once the dead prefix dominates, so steady-state
// traffic reuses it instead of growing without bound.
func (s *Sender) pruneOutstanding() {
	for s.outHead < len(s.outstanding) && s.outstanding[s.outHead].acked {
		seg := s.outstanding[s.outHead]
		s.outstanding[s.outHead] = nil
		s.outHead++
		seg.inOut = false
		if !seg.inRtx {
			s.freeSegment(seg)
		}
	}
	if s.outHead > 32 && s.outHead*2 >= len(s.outstanding) {
		n := copy(s.outstanding, s.outstanding[s.outHead:])
		tail := s.outstanding[n:]
		for i := range tail {
			tail[i] = nil
		}
		s.outstanding = s.outstanding[:n]
		s.outHead = 0
	}
}

func (s *Sender) rto() netsim.Time {
	rto := s.srtt + 4*s.rttvar
	if rto < s.MinRTO {
		rto = s.MinRTO
	}
	return rto
}

// armRTO pushes the timeout deadline past now. A single timer event serves
// every arm: if one is already scheduled it observes the moved deadline when
// it fires and re-arms for the remainder.
func (s *Sender) armRTO() {
	s.rtoDeadline = s.Host.Eng.Now() + s.rto()
	s.rtoArm = true
	if !s.rtoPending {
		s.rtoPending = true
		s.Host.Eng.At(s.rtoDeadline, s.rtoFireFn)
	}
}

func (s *Sender) fireRTO() {
	s.rtoPending = false
	if s.completed || !s.rtoArm {
		return
	}
	now := s.Host.Eng.Now()
	if now < s.rtoDeadline {
		// ACKs moved the deadline since this timer was set; sleep out the
		// remainder.
		s.rtoPending = true
		s.Host.Eng.At(s.rtoDeadline, s.rtoFireFn)
		return
	}
	// A drained app-limited stream disarms instead of re-arming forever;
	// the next Push re-arms. Keeps idle sessions off the event heap.
	if s.inflight == 0 && len(s.rtxQueue) == 0 && !s.remaining() {
		s.rtoArm = false
		return
	}
	// Anything outstanding and un-lost is now presumed lost.
	lost := 0
	for _, seg := range s.outstanding[s.outHead:] {
		if seg.acked || seg.lost {
			continue
		}
		seg.lost = true
		s.inflight -= seg.size
		lost += seg.size
		seg.inRtx = true
		s.rtxQueue = append(s.rtxQueue, seg)
	}
	if lost > 0 {
		s.Timeouts++
		s.CC.OnLoss(LossInfo{Now: s.Host.Eng.Now(), LostBytes: lost, Timeout: true})
	}
	s.armRTO()
	s.maybeSend()
}
