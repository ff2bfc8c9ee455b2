package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Rings vs a reference that pushes every completion
// ---------------------------------------------------------------------------

// The reference below is the scheduling the rings replaced, written out
// plainly: one heap, one sequence counter, and every delivery and every CPU
// completion pushed on its own the moment it is known. It re-states Link's
// service order (Send → startNext → txDone → deliver) and a FIFO CPU's
// (busyUntil = max(busyUntil, now) + work) with the sequence number drawn at
// the same points, so its log is what the engine's must equal, tie for tie.

// Reference event kinds, carried in oracleItem.kind.
const (
	refTimer = iota
	refTxDone
	refDeliver
	refCPUPkt  // a delivered packet's CPU work retired (SubmitPacket)
	refCPUDone // a timer's CPU work retired (Submit(done))
)

// Script timer kinds.
const (
	tmMark = iota
	tmInject
	tmDelay  // set a link's delay, possibly under packets in flight
	tmSubmit // CPU work with a completion of its own, pushed on its own
	tmCharge // CPU work with no completion
)

// flightScript is one seeded workload: links on a common grid of delays and
// transmission times (so arrivals tie with each other and with timers), CPUs
// that every delivery passes through before it is forwarded, and timers that
// inject packets, change a link's delay under packets in flight, load a CPU
// with work of their own, or only mark the log. CPU work is on the same
// microsecond grid, so completions tie with deliveries, timers and each other.
type flightScript struct {
	nLinks int
	nCPUs  int // 0: deliveries forward at once; else link i delivers into CPU i % nCPUs
	delay  []Time
	timers []scriptTimer
	hops   int
}

type scriptTimer struct {
	at       Time
	kind     int
	link     int // tmInject, tmDelay
	cpu      int // tmSubmit, tmCharge
	size     int
	newDelay Time
	work     Time
}

// flightLog is what both sides record, in execution order: every timer (with
// the number of events pending at it), delivery and CPU completion.
type flightLog struct {
	at      Time
	what    byte // 't' timer, 'd' delivery, 'c' a packet's CPU work, 's' a timer's CPU work
	id      int  // timer index ('t', 's') or link ('d', 'c')
	pkt     int
	hop     int
	pending int
}

func newFlightScript(seed int64) flightScript {
	r := rand.New(rand.NewSource(seed))
	sc := flightScript{nLinks: 2 + r.Intn(5), nCPUs: r.Intn(3), hops: 3 + r.Intn(6)}
	grid := []Time{2 * Microsecond, 10 * Microsecond, 30 * Microsecond}
	common := grid[r.Intn(len(grid))]
	for i := 0; i < sc.nLinks; i++ {
		sc.delay = append(sc.delay, common) // equal delays: ties across links
	}
	for i, n := 0, 20+r.Intn(60); i < n; i++ {
		tm := scriptTimer{at: Time(r.Intn(100)) * Microsecond, link: r.Intn(sc.nLinks)}
		switch k := r.Intn(10); {
		case k < 6:
			tm.kind = tmInject
			tm.size = 125 * (1 + r.Intn(2)) // 1 µs or 2 µs at 1 Gbps
		case k < 8:
			tm.kind = tmDelay
			tm.newDelay = grid[r.Intn(len(grid))]
		case k < 9 && sc.nCPUs > 0:
			tm.kind = tmSubmit + r.Intn(2)
			tm.cpu = r.Intn(sc.nCPUs)
			tm.work = Time(r.Intn(4)) * Microsecond
		}
		sc.timers = append(sc.timers, tm)
	}
	return sc
}

// next is the forwarding rule both sides apply once a packet is delivered
// (and, with CPUs, processed).
func (sc *flightScript) next(link, pkt int) int { return (link + 1 + pkt%sc.nLinks) % sc.nLinks }

// work is a packet's CPU cost at a hop: 0, 1 or 2 µs, so some completions fall
// at the very time of their delivery.
func (sc *flightScript) work(pkt, hop int) Time { return Time((pkt+hop)%3) * Microsecond }

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
	busy  []Time // per CPU: busyUntil
	log   []flightLog
}

func (s *refSim) push(at Time, kind, link int, p refPkt) {
	s.seq++
	heap.Push(&s.h, oracleItem{at: at, seq: s.seq, kind: kind, link: link, pkt: p})
}

// charge queues work on a CPU and returns when it retires.
func (s *refSim) charge(cpu int, work Time) Time {
	s.busy[cpu] = max(s.busy[cpu], s.now) + work
	return s.busy[cpu]
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
	s := &refSim{sc: sc, busy: make([]Time, sc.nCPUs)}
	for _, d := range sc.delay {
		s.links = append(s.links, refLink{delay: d})
	}
	for i, tm := range sc.timers {
		s.push(tm.at, refTimer, i, refPkt{})
	}
	for s.h.Len() > 0 {
		it := heap.Pop(&s.h).(oracleItem)
		s.now = it.at
		switch p := it.pkt; it.kind {
		case refTimer:
			tm := sc.timers[it.link]
			s.log = append(s.log, flightLog{at: s.now, what: 't', id: it.link, pending: s.h.Len()})
			switch tm.kind {
			case tmInject:
				s.send(tm.link, refPkt{id: it.link, size: tm.size})
			case tmDelay:
				s.links[tm.link].delay = tm.newDelay
			case tmSubmit:
				s.push(s.charge(tm.cpu, tm.work), refCPUDone, it.link, refPkt{})
			case tmCharge:
				s.charge(tm.cpu, tm.work)
			}
		case refTxDone:
			s.push(s.now+s.links[it.link].delay, refDeliver, it.link, p)
			s.startNext(it.link)
		case refDeliver:
			s.log = append(s.log, flightLog{at: s.now, what: 'd', id: it.link, pkt: p.id, hop: p.hop})
			if p.hop++; p.hop >= sc.hops {
				break
			}
			if sc.nCPUs > 0 {
				s.push(s.charge(it.link%sc.nCPUs, sc.work(p.id, p.hop)), refCPUPkt, it.link, p)
			} else {
				s.send(sc.next(it.link, p.id), p)
			}
		case refCPUPkt:
			s.log = append(s.log, flightLog{at: s.now, what: 'c', id: it.link, pkt: p.id, hop: p.hop})
			s.send(sc.next(it.link, p.id), p)
		case refCPUDone:
			s.log = append(s.log, flightLog{at: s.now, what: 's', id: it.link})
		}
	}
	return s.log
}

// fifoServer is ksim.CPU's scheduling with the accounting and the backlog
// bound left out (ksim imports netsim, so the test cannot use the real one):
// per-packet completions go to the server's Ring, a completion of its own is
// a plain At, and a charge only moves busyUntil.
type fifoServer struct {
	eng       *Engine
	busyUntil Time
	done      Ring
}

func (c *fifoServer) charge(work Time) { c.busyUntil = max(c.busyUntil, c.eng.Now()) + work }

// runFlightEngine plays the script on the real engine, links and rings. It
// also reports the deepest the rings got behind their heads and whether a
// delivery ever overtook its ring's tail (a packet in propagation that its
// link's ring does not hold), so the test can tell both paths were taken.
func runFlightEngine(sc *flightScript) (log []flightLog, deepest int, overtook bool) {
	e := NewEngine()
	links := make([]*Link, sc.nLinks)
	delivered := make([]int64, sc.nLinks)
	processed := make([]func(*Packet), sc.nLinks) // a delivered packet's CPU work retired
	cpus := make([]*fifoServer, sc.nCPUs)
	for i := range cpus {
		cpus[i] = &fifoServer{eng: e}
		cpus[i].done.Init(e)
	}
	for i := range links {
		i := i
		links[i] = NewLink(e, HandlerFunc(func(p *Packet) {
			delivered[i]++
			log = append(log, flightLog{at: e.Now(), what: 'd', id: i, pkt: int(p.Flow), hop: p.Hop})
			if p.Hop++; p.Hop >= sc.hops {
				FreePacket(p)
			} else if sc.nCPUs > 0 {
				c := cpus[i%sc.nCPUs]
				c.charge(sc.work(int(p.Flow), p.Hop))
				c.done.At(c.busyUntil, processed[i], p)
			} else {
				links[sc.next(i, int(p.Flow))].Send(p)
			}
		}), flightRate, sc.delay[i], nil)
		processed[i] = func(p *Packet) {
			log = append(log, flightLog{at: e.Now(), what: 'c', id: i, pkt: int(p.Flow), hop: p.Hop})
			links[sc.next(i, int(p.Flow))].Send(p)
		}
	}
	for i, tm := range sc.timers {
		i, tm := i, tm
		e.At(tm.at, func() {
			log = append(log, flightLog{at: e.Now(), what: 't', id: i, pending: e.Pending()})
			deepest = max(deepest, e.flying)
			for j, l := range links {
				overtook = overtook || l.TxPackets()-delivered[j] > int64(l.fly.n)
			}
			switch tm.kind {
			case tmInject:
				p := AllocPacket()
				p.Flow, p.Size = FlowID(i), tm.size
				links[tm.link].Send(p)
			case tmDelay:
				links[tm.link].delay = tm.newDelay
			case tmSubmit:
				c := cpus[tm.cpu]
				c.charge(tm.work)
				e.At(c.busyUntil, func() { log = append(log, flightLog{at: e.Now(), what: 's', id: i}) })
			case tmCharge:
				cpus[tm.cpu].charge(tm.work)
			}
		})
	}
	e.Run()
	if e.Pending() != 0 || e.flying != 0 {
		panic("engine drained with completions still counted in rings")
	}
	return log, deepest, overtook
}

// cpuTies counts adjacent log entries at one time where at least one is a CPU
// completion and the two are not both a packet's: the ties a CPU ring must
// break exactly as the plain push does.
func cpuTies(log []flightLog) int {
	n := 0
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.at == b.at && (a.what == 'c' || b.what == 'c') && a.what != b.what {
			n++
		}
	}
	return n
}

// TestLinkRingsMatchPushEveryDelivery is the ordering proof executed: over
// seeded topologies with equal delays, the engine's deliveries, CPU
// completions and timers happen in exactly the reference's order, and
// Pending() agrees with the reference heap's length at every timer.
func TestLinkRingsMatchPushEveryDelivery(t *testing.T) {
	deepest, overtakes, ties := 0, 0, 0
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
		ties += cpuTies(want)
	}
	if deepest < 4 {
		t.Errorf("rings never held more than %d completions behind their heads: the scripts do not load them", deepest)
	}
	if overtakes == 0 {
		t.Error("no script made a delivery overtake its ring's tail: the plain-push path went unexercised")
	}
	if ties < 50 {
		t.Errorf("%d ties between a CPU ring's completions and other events: the scripts do not test its tie-break", ties)
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

// TestRingWrapsAndGrows fires a ring's head while appending faster than it
// drains, so the buffer wraps and doubles with the head moving: completions
// run in order, only the head is in the heap, the rest count in flying, and a
// retired slot lets its packet go.
func TestRingWrapsAndGrows(t *testing.T) {
	e := NewEngine()
	var r Ring
	r.Init(e)
	next, want := 0, 0
	check := func(p *Packet) {
		if int(p.Flow) != want {
			t.Fatalf("completion %d ran, want %d", p.Flow, want)
		}
		want++
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 7+round; i++ { // net growth, with the head moving
			r.At(Time(next), check, &Packet{Flow: FlowID(next)})
			next++
		}
		for i := 0; i < 5; i++ {
			e.Step()
		}
	}
	if r.n != next-want || len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("n = %d (want %d), cap %d (want a power of two)", r.n, next-want, len(r.buf))
	}
	if e.q.len() != 1 || e.flying != r.n-1 {
		t.Fatalf("heap %d, flying %d; want the head alone in the heap and %d behind it", e.q.len(), e.flying, r.n-1)
	}
	for i := r.n; i < len(r.buf); i++ { // retired slots must not pin packets
		if r.buf[(r.first+i)&(len(r.buf)-1)].p != nil {
			t.Fatal("a retired slot still references its packet")
		}
	}
}
