package tcp

import (
	"slices"
	"sort"

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
// from the simulation's free list, segments from a per-sender freelist, and
// the pacing and RTO callbacks are bound once at construction.
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

	// dupThresh is the reordering tolerance in segments before a hole is
	// declared lost (fast retransmit): 3, as Linux.
	dupThresh int
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
	outstanding []*segment // ordered by seq, tiling the stream; live region starts at outHead
	outHead     int
	// Below scanSeq every outstanding segment is acked, lost, or in watch (in
	// flight, sorted by seq; it leaves in the handleAck that acks it).
	scanSeq    int64
	watch      []*segment
	rtxQueue   []*segment // live region starts at rtxHead
	rtxHead    int
	segFree    []*segment
	inflight   int
	ackedBytes int64
	highestAck int64 // highest segment seq acknowledged

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
		dupThresh: 3,
		MinRTO:    200 * netsim.Millisecond,
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
	if s.rtxHead == len(s.rtxQueue) && !s.remaining() {
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
	for s.rtxHead < len(s.rtxQueue) {
		seg := s.rtxQueue[s.rtxHead]
		s.rtxQueue[s.rtxHead] = nil
		s.rtxQueue, s.rtxHead = compact(s.rtxQueue, s.rtxHead+1)
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
		// transmit clears lost: the segment is in flight again.
		if seg.seq < s.scanSeq {
			i := sort.Search(len(s.watch), func(k int) bool { return s.watch[k].seq >= seg.seq })
			if i == len(s.watch) || s.watch[i] != seg {
				s.watch = slices.Insert(s.watch, i, seg)
			}
		}
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
			s.msgs, s.msgHead = compact(s.msgs, s.msgHead+1)
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
	return seg
}

func (s *Sender) transmit(seg *segment) {
	now := s.Host.Eng.Now()
	seg.sentAt = now
	seg.lost = false
	s.inflight += seg.size
	p := s.Host.Eng.AllocPacket()
	p.Flow, p.Src, p.Dst = s.Flow, s.Host.ID, s.Dst
	p.Seq, p.Size = seg.seq, seg.size+netsim.HeaderBytes
	p.FIN = seg.fin
	p.App = seg.tag
	p.Prio = s.Prio
	p.Path = s.Path
	s.Host.Transmit(p)
}

// handleAck processes a selective acknowledgment for one segment.
func (s *Sender) handleAck(p *netsim.Packet) {
	if s.completed {
		return
	}
	seg := s.unacked(p.AckNo)
	if seg == nil {
		return
	}
	now := s.Host.Eng.Now()
	seg.acked = true
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
		AckedBytes: seg.size, ECE: p.ECE, DeliveryRate: s.deliveryRate,
	})

	s.pruneOutstanding()

	if s.Size > 0 && s.ackedBytes >= s.Size {
		s.completed = true
		if s.OnComplete != nil {
			s.OnComplete(now - s.startAt)
		}
		return
	}
	s.maybeSend()
}

// find returns the index in outstanding of the first live segment at or past
// seq. Live segments tile the stream in seq order: in a full-MSS stream one
// sits at its offset in MSS units from the first, else the search finds it.
func (s *Sender) find(seq int64) int {
	live := s.outstanding[s.outHead:]
	if len(live) == 0 || seq <= live[0].seq {
		return s.outHead
	}
	if k := (seq - live[0].seq) / netsim.MSS; k < int64(len(live)) && live[k].seq == seq {
		return s.outHead + int(k)
	}
	return s.outHead + sort.Search(len(live), func(k int) bool { return live[k].seq >= seq })
}

// unacked returns the unacknowledged outstanding segment starting at seq.
func (s *Sender) unacked(seq int64) *segment {
	if i := s.find(seq); i < len(s.outstanding) {
		if seg := s.outstanding[i]; seg.seq == seq && !seg.acked {
			return seg
		}
	}
	return nil
}

// detectLoss marks outstanding segments that precede the just-acked segment
// by more than dupThresh segments (and were sent earlier) as lost, in seq
// order: first those in watch, then a walk from scanSeq that moves scanSeq
// past every segment it visits and adds the ones left in flight to watch. The
// walk stops at the first segment at or past the threshold: outstanding is
// ordered by seq (a retransmission keeps its segment's slot), so no later one
// can qualify.
func (s *Sender) detectLoss(acked *segment) {
	threshold := s.highestAck - int64(s.dupThresh*netsim.MSS)
	lost := 0
	watch := s.watch[:0]
	for _, seg := range s.watch {
		if !seg.acked && !seg.lost {
			if seg.seq < threshold && seg.sentAt <= acked.sentAt {
				lost += s.markLost(seg)
			} else {
				watch = append(watch, seg)
			}
		}
	}
	clear(s.watch[len(watch):])
	s.watch = watch
	for _, seg := range s.outstanding[s.find(s.scanSeq):] {
		if seg.seq >= threshold {
			break
		}
		if !seg.acked && !seg.lost {
			if seg.sentAt <= acked.sentAt {
				lost += s.markLost(seg)
			} else {
				s.watch = append(s.watch, seg)
			}
		}
		s.scanSeq = seg.seq + int64(seg.size)
	}
	if lost > 0 {
		s.CC.OnLoss(LossInfo{Now: s.Host.Eng.Now(), LostBytes: lost})
		s.maybeSend()
	}
}

// markLost queues seg for retransmission and returns its size.
func (s *Sender) markLost(seg *segment) int {
	seg.lost = true
	s.inflight -= seg.size
	seg.inRtx = true
	s.rtxQueue = append(s.rtxQueue, seg)
	return seg.size
}

// pruneOutstanding drops acked segments from the front of the ordered list,
// recycling the ones the retransmission queue no longer references.
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
	s.outstanding, s.outHead = compact(s.outstanding, s.outHead)
}

// compact moves the live region q[head:] of a queue to the front once the
// dead prefix dominates, so steady traffic reuses the backing array instead
// of growing it without bound.
func compact[T any](q []T, head int) ([]T, int) {
	if head <= 32 || head*2 < len(q) {
		return q, head
	}
	n := copy(q, q[head:])
	clear(q[n:])
	return q[:n], 0
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
	if s.inflight == 0 && s.rtxHead == len(s.rtxQueue) && !s.remaining() {
		s.rtoArm = false
		return
	}
	// Anything outstanding and un-lost is now presumed lost.
	lost := 0
	for _, seg := range s.outstanding[s.outHead:] {
		if seg.acked || seg.lost {
			continue
		}
		lost += s.markLost(seg)
	}
	if lost > 0 {
		s.Timeouts++
		s.CC.OnLoss(LossInfo{Now: s.Host.Eng.Now(), LostBytes: lost, Timeout: true})
	}
	s.armRTO()
	s.maybeSend()
}
