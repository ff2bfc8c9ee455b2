package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Link rings vs a reference that pushes every delivery
// ---------------------------------------------------------------------------

// The reference below is the scheduling the rings replaced, written out
// plainly: one heap, one sequence counter, and every delivery pushed on its
// own the moment its serialization ends. It re-states Link's service order
// (Send → startNext → txDone → deliver) with the sequence number drawn at the
// same points, so its log is what the engine's must equal, tie for tie.

// Reference event kinds, carried in oracleItem.kind.
const (
	refTimer = iota
	refTxDone
	refDeliver
)

// flightScript is one seeded workload: links on a common grid of delays and
// transmission times (so arrivals tie with each other and with timers), and
// timers that inject packets, change a link's delay under packets in flight,
// or only mark the log.
type flightScript struct {
	nLinks int
	delay  []Time
	timers []scriptTimer
	hops   int
}

type scriptTimer struct {
	at       Time
	inject   bool
	link     int
	size     int
	newDelay Time // > 0: set link's delay
}

// flightLog is what both sides record: every delivery and every timer, in
// execution order, with the number of events pending at each timer.
type flightLog struct {
	at      Time
	link    int // -1: a timer
	pkt     int // packet id, or timer index
	hop     int
	pending int
}

func newFlightScript(seed int64) flightScript {
	r := rand.New(rand.NewSource(seed))
	sc := flightScript{nLinks: 2 + r.Intn(5), hops: 3 + r.Intn(6)}
	grid := []Time{2 * Microsecond, 10 * Microsecond, 30 * Microsecond}
	common := grid[r.Intn(len(grid))]
	for i := 0; i < sc.nLinks; i++ {
		sc.delay = append(sc.delay, common) // equal delays: ties across links
	}
	for i, n := 0, 20+r.Intn(60); i < n; i++ {
		tm := scriptTimer{at: Time(r.Intn(100)) * Microsecond, link: r.Intn(sc.nLinks)}
		switch k := r.Intn(10); {
		case k < 7:
			tm.inject = true
			tm.size = 125 * (1 + r.Intn(2)) // 1 µs or 2 µs at 1 Gbps
		case k < 9:
			tm.newDelay = grid[r.Intn(len(grid))]
		}
		sc.timers = append(sc.timers, tm)
	}
	return sc
}

// next is the forwarding rule both sides apply at a delivery.
func (sc *flightScript) next(link, pkt int) int { return (link + 1 + pkt%sc.nLinks) % sc.nLinks }

const flightRate = 1_000_000_000

type refPkt struct{ id, size, hop int }

type refLink struct {
	delay Time
	busy  bool
	queue []refPkt
}

type refSim struct {
	sc    *flightScript
	h     oracleHeap
	seq   uint64
	now   Time
	links []refLink
	log   []flightLog
}

func (s *refSim) push(at Time, kind, link int, p refPkt) {
	s.seq++
	heap.Push(&s.h, oracleItem{at: at, seq: s.seq, kind: kind, link: link, pkt: p})
}

func (s *refSim) send(link int, p refPkt) {
	l := &s.links[link]
	l.queue = append(l.queue, p)
	if !l.busy {
		s.startNext(link)
	}
}

func (s *refSim) startNext(link int) {
	l := &s.links[link]
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	p := l.queue[0]
	l.queue = l.queue[1:]
	l.busy = true
	s.push(s.now+Time(int64(p.size)*8*int64(Second)/flightRate), refTxDone, link, p)
}

func runFlightReference(sc *flightScript) []flightLog {
	s := &refSim{sc: sc}
	for _, d := range sc.delay {
		s.links = append(s.links, refLink{delay: d})
	}
	for i, tm := range sc.timers {
		s.push(tm.at, refTimer, i, refPkt{})
	}
	for s.h.Len() > 0 {
		it := heap.Pop(&s.h).(oracleItem)
		s.now = it.at
		switch it.kind {
		case refTimer:
			tm := sc.timers[it.link]
			s.log = append(s.log, flightLog{at: s.now, link: -1, pkt: it.link, pending: s.h.Len()})
			if tm.inject {
				s.send(tm.link, refPkt{id: it.link, size: tm.size})
			} else if tm.newDelay > 0 {
				s.links[tm.link].delay = tm.newDelay
			}
		case refTxDone:
			s.push(s.now+s.links[it.link].delay, refDeliver, it.link, it.pkt)
			s.startNext(it.link)
		case refDeliver:
			p := it.pkt
			s.log = append(s.log, flightLog{at: s.now, link: it.link, pkt: p.id, hop: p.hop})
			if p.hop++; p.hop < sc.hops {
				s.send(sc.next(it.link, p.id), p)
			}
		}
	}
	return s.log
}

// pending returns the events in the heap. Inside an event the root may be an
// open hole, still holding the event being executed.
func (q *eventQueue) pending() []event {
	if q.open {
		return q.ev[1:]
	}
	return q.ev
}

// runFlightEngine plays the script on the real engine and links. It also
// reports the deepest a ring got and whether a delivery ever took the plain
// push (evDeliverPkt), so the test can tell both paths were taken.
func runFlightEngine(sc *flightScript) (log []flightLog, deepest int, overtook bool) {
	e := NewEngine()
	links := make([]*Link, sc.nLinks)
	for i := range links {
		i := i
		links[i] = NewLink(e, HandlerFunc(func(p *Packet) {
			log = append(log, flightLog{at: e.Now(), link: i, pkt: int(p.Flow), hop: p.Hop})
			if p.Hop++; p.Hop < sc.hops {
				links[sc.next(i, int(p.Flow))].Send(p)
			} else {
				FreePacket(p)
			}
		}), flightRate, sc.delay[i], nil)
	}
	for i, tm := range sc.timers {
		i, tm := i, tm
		e.At(tm.at, func() {
			log = append(log, flightLog{at: e.Now(), link: -1, pkt: i, pending: e.Pending()})
			deepest = max(deepest, e.flying)
			for _, ev := range e.q.pending() {
				overtook = overtook || ev.kind == evDeliverPkt
			}
			if tm.inject {
				p := AllocPacket()
				p.Flow, p.Size = FlowID(i), tm.size
				links[tm.link].Send(p)
			} else if tm.newDelay > 0 {
				links[tm.link].delay = tm.newDelay
			}
		})
	}
	e.Run()
	if e.Pending() != 0 || e.flying != 0 {
		panic("engine drained with packets still counted in flight")
	}
	return log, deepest, overtook
}

// TestLinkRingsMatchPushEveryDelivery is the ordering proof executed: over
// seeded topologies with equal delays, the engine's deliveries and timers
// happen in exactly the reference's order, and Pending() agrees with the
// reference heap's length at every timer.
func TestLinkRingsMatchPushEveryDelivery(t *testing.T) {
	deepest, overtakes := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		sc := newFlightScript(seed)
		want := runFlightReference(&sc)
		got, deep, overtook := runFlightEngine(&sc)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		deepest = max(deepest, deep)
		if overtook {
			overtakes++
		}
	}
	if deepest < 4 {
		t.Errorf("rings never held more than %d packets behind their heads: the scripts do not load them", deepest)
	}
	if overtakes == 0 {
		t.Error("no script made a delivery overtake its ring's tail: the plain-push path went unexercised")
	}
}

// ---------------------------------------------------------------------------
// The ring's edges, one at a time
// ---------------------------------------------------------------------------

// inject sends n packets of size bytes on l, flow-numbered from first.
func inject(l *Link, first, n, size int) {
	for i := 0; i < n; i++ {
		p := AllocPacket()
		p.Flow, p.Size = FlowID(first+i), size
		l.Send(p)
	}
}

func TestPendingCountsPacketsInPropagation(t *testing.T) {
	e := NewEngine()
	sink := &Sink{}
	l := NewLink(e, sink, 1e9, 10*Millisecond, nil)
	inject(l, 0, 5, 125) // 1 µs each on the wire
	e.RunUntil(Millisecond)
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d with 5 packets in propagation, want 5", got)
	}
	if e.q.len() != 1 {
		t.Errorf("heap holds %d events for one link's 5 deliveries, want 1", e.q.len())
	}
	e.Run()
	if sink.Packets != 5 || e.Pending() != 0 {
		t.Errorf("after Run: delivered %d, Pending %d; want 5, 0", sink.Packets, e.Pending())
	}
}

func TestSetTargetRedirectsPacketsInFlight(t *testing.T) {
	e := NewEngine()
	before, after := &Sink{}, &Sink{}
	l := NewLink(e, before, 1e9, Millisecond, nil)
	inject(l, 0, 4, 125)
	// Arrivals at 1001, 1002, 1003, 1004 µs; retarget between the 2nd and 3rd.
	e.At(Millisecond+2500, func() { l.SetTarget(after) })
	e.Run()
	if before.Packets != 2 || after.Packets != 2 {
		t.Fatalf("deliveries before/after SetTarget = %d/%d, want 2/2", before.Packets, after.Packets)
	}
}

// A delay lowered under packets in flight lets a later packet arrive first;
// it must not wait behind the ring's tail.
func TestLoweredDelayOvertakesRing(t *testing.T) {
	e := NewEngine()
	var order []FlowID
	l := NewLink(e, HandlerFunc(func(p *Packet) {
		order = append(order, p.Flow)
		FreePacket(p)
	}), 1e9, 10*Millisecond, nil)
	inject(l, 0, 2, 125)
	e.At(Millisecond, func() {
		l.delay = Millisecond
		inject(l, 2, 1, 125)
	})
	e.RunUntil(Millisecond + 10*Microsecond)
	if e.q.len() != 2 || e.Pending() != 3 {
		t.Fatalf("heap %d, Pending %d; want 2 (ring head + overtaker), 3", e.q.len(), e.Pending())
	}
	e.Run()
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("delivery order = %v, want [2 0 1]", order)
	}
}

// A ring belongs to the partition the link delivers into, so that partition
// cannot change under packets in propagation.
func TestBindRemoteWithPacketsInPropagationPanics(t *testing.T) {
	e := NewParallelEngine(1)
	p1 := e.AddPartition()
	l := NewLink(e, &Sink{}, 1e9, Millisecond, nil)
	inject(l, 0, 1, 125)
	e.RunUntil(10 * Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("BindRemote must panic while the link's ring is armed in another partition's heap")
		}
	}()
	l.BindRemote(p1)
}

func TestFlightRingWrapsAndGrows(t *testing.T) {
	var r flightRing
	next, want := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7+round; i++ { // net growth, with the head moving
			next++
			r.push(flight{seq: next, p: &Packet{}})
		}
		for i := 0; i < 5; i++ {
			want++
			if got := r.head().seq; got != want {
				t.Fatalf("head seq = %d, want %d", got, want)
			}
			if r.tail().seq != next {
				t.Fatalf("tail seq = %d, want %d", r.tail().seq, next)
			}
			r.pop()
		}
	}
	if r.n != int(next-want) || len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("n = %d (want %d), cap %d (want a power of two)", r.n, next-want, len(r.buf))
	}
	for _, f := range r.buf[:r.first] { // popped slots must not pin packets
		if f.p != nil {
			t.Fatal("a popped slot still references its packet")
		}
	}
}
