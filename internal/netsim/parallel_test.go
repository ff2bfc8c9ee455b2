package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/liteflow-sim/liteflow/internal/obs"
)

// ---------------------------------------------------------------------------
// Typed event queue vs container/heap oracle
// ---------------------------------------------------------------------------

// oracleItem mirrors event ordering: (at, seq) with FIFO tie-break. The
// payload fields are for the link reference in flight_test.go.
type oracleItem struct {
	at  Time
	seq uint64

	kind, link int
	pkt        refPkt
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// FuzzEventQueue drives the typed 4-ary queue and a container/heap oracle
// with the same interleaved sequence of pushes (any other byte), pops (0) and
// peeks at the minimum (255), comparing lengths after every step, and
// requires identical pop order — including the FIFO tie-break among
// same-time events. A pop leaves the root open, so the sequences decide who
// finds it so: the next push, pop or peek, or the final drain.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 0, 0, 5, 5, 5, 0, 0, 0})
	f.Add([]byte{0})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 0, 9, 0, 1, 0, 5})              // pop → push: the push fills the root
	f.Add([]byte{4, 3, 2, 1, 5, 6, 0, 0, 0, 0, 0, 0})     // pop → pop: the pop fills it
	f.Add([]byte{2, 8, 4, 6, 0, 255, 1, 0, 255, 255, 3})  // pop → peek → push
	f.Add([]byte{5, 0, 255, 0, 6, 0, 0, 255, 7, 255, 0})  // through empty, open and closed
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 0, 12}) // ends open with a ragged last group
	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		var o oracleHeap
		var seq uint64
		pop := func(when string) {
			got := q.pop()
			want := heap.Pop(&o).(oracleItem)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("%s order diverged: got (at=%d seq=%d), oracle (at=%d seq=%d)",
					when, got.at, got.seq, want.at, want.seq)
			}
		}
		for i, b := range data {
			switch {
			case b == 0 && q.len() > 0:
				pop("pop")
			case b == 255:
				want := never
				if o.Len() > 0 {
					want = o[0].at
				}
				if got := q.minTime(); got != want {
					t.Fatalf("step %d: minTime = %d, oracle's minimum is at %d", i, got, want)
				}
			default:
				seq++
				at := Time(b % 16) // coarse times force plenty of ties
				q.push(event{at: at, seq: seq})
				heap.Push(&o, oracleItem{at: at, seq: seq})
			}
			if q.len() != o.Len() {
				t.Fatalf("step %d (byte %d): len = %d, oracle holds %d", i, b, q.len(), o.Len())
			}
		}
		for q.len() > 0 {
			pop("drain")
		}
		if o.Len() != 0 {
			t.Fatalf("oracle retains %d items after queue drained", o.Len())
		}
		if q.settle(); len(q.ev) != 0 || q.open {
			t.Fatalf("drained and settled queue still has %d slots (open = %v)", len(q.ev), q.open)
		}
	})
}

// TestEventQueueRootHole pins who closes the hole a pop leaves at the root —
// the next push, pop, minTime or settle — and that len never counts it.
func TestEventQueueRootHole(t *testing.T) {
	var q eventQueue
	for i, at := range []Time{50, 10, 40, 20, 30, 60} {
		q.push(event{at: at, seq: uint64(i + 1)})
	}
	expect := func(step string, open bool, n int) {
		t.Helper()
		if q.open != open || q.len() != n {
			t.Fatalf("after %s: open = %v, len = %d; want %v, %d", step, q.open, q.len(), open, n)
		}
	}
	popAt := func(step string, at Time) {
		t.Helper()
		if got := q.pop().at; got != at {
			t.Fatalf("%s returned the event at %d, want %d", step, got, at)
		}
	}
	expect("pushes", false, 6)
	popAt("pop", 10)
	expect("pop", true, 5)
	q.push(event{at: 35, seq: 7})
	expect("pop → push", false, 6)
	popAt("pop", 20)
	popAt("pop → pop", 30)
	expect("pop → pop", true, 4)
	if at := q.minTime(); at != 35 {
		t.Fatalf("minTime = %d, want 35", at)
	}
	expect("pop → minTime", false, 4)
	popAt("pop", 35)
	q.settle()
	expect("pop → settle", false, 3)
	popAt("pop", 40)
	popAt("pop", 50)
	popAt("pop", 60)
	expect("the last pop", true, 0)
	if at := q.minTime(); at != never || len(q.ev) != 0 {
		t.Fatalf("empty queue: minTime = %d with %d slots, want never and none", at, len(q.ev))
	}
}

// TestEventIs24Bytes pins the heap entry's size. The sift moves events, not
// pointers to them, so every byte is copied at each level of every push and
// pop: an event is its key (at, seq) and one func, and whatever else it needs
// waits on the entity that scheduled it (a Link's txPkt, a Ring's entries).
// A field added here costs every event in the simulation.
func TestEventIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
}

// precedesLikeBefore fails unless the branch-free comparison and the plain
// one agree on (a, b) and on (b, a).
func precedesLikeBefore(t *testing.T, a, b event) {
	t.Helper()
	for _, pair := range [][2]*event{{&a, &b}, {&b, &a}} {
		want := 0
		if pair[0].before(pair[1]) {
			want = 1
		}
		if got := precedes(pair[0], pair[1]); got != want {
			t.Fatalf("precedes((at=%d seq=%d), (at=%d seq=%d)) = %d, before says %d",
				pair[0].at, pair[0].seq, pair[1].at, pair[1].seq, got, want)
		}
	}
}

// TestPrecedesMatchesBefore walks the edges of both key halves: times around
// zero and at the top of the range (never is a legal key), sequence numbers
// at both ends, every pair including equal keys.
func TestPrecedesMatchesBefore(t *testing.T) {
	var keys []event
	for _, at := range []Time{math.MinInt64, -1, 0, 1, never - 1, never} {
		for _, seq := range []uint64{0, 1, math.MaxUint64} {
			keys = append(keys, event{at: at, seq: seq})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			precedesLikeBefore(t, a, b)
		}
	}
}

func FuzzPrecedesMatchesBefore(f *testing.F) {
	f.Add(int64(0), uint64(0), int64(0), uint64(1))
	f.Add(int64(-1), uint64(math.MaxUint64), int64(0), uint64(0))
	f.Add(int64(never), uint64(3), int64(never-1), uint64(4))
	f.Fuzz(func(t *testing.T, at1 int64, seq1 uint64, at2 int64, seq2 uint64) {
		precedesLikeBefore(t, event{at: at1, seq: seq1}, event{at: at2, seq: seq2})
	})
}

// ---------------------------------------------------------------------------
// Typed past-event errors
// ---------------------------------------------------------------------------

func TestAtPanicsWithErrPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrPastEvent) {
			t.Fatalf("At in the past: panic = %v, want error wrapping ErrPastEvent", r)
		}
	}()
	e.At(50, func() {})
}

// A ring's schedule is At's: a time before the partition's clock panics, and
// the ring is left as it was.
func TestRingAtPanicsWithErrPastEvent(t *testing.T) {
	e := NewEngine()
	var r Ring
	r.Init(e)
	r.At(100, func(*Packet) {}, &Packet{})
	r.At(150, func(*Packet) {}, &Packet{})
	e.RunUntil(120)
	defer func() {
		rec := recover()
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrPastEvent) {
			t.Fatalf("Ring.At in the past: panic = %v, want error wrapping ErrPastEvent", rec)
		}
		if r.n != 1 || e.Pending() != 1 {
			t.Fatalf("after the refused schedule: ring holds %d, Pending %d; want 1, 1", r.n, e.Pending())
		}
	}()
	r.At(110, func(*Packet) {}, &Packet{})
}

// ---------------------------------------------------------------------------
// Partitioned engine mechanics
// ---------------------------------------------------------------------------

func TestStepPanicsOnMultiPartitionEngine(t *testing.T) {
	e := NewParallelEngine(2)
	e.AddPartition()
	defer func() {
		if recover() == nil {
			t.Fatal("Step on a multi-partition engine must panic")
		}
	}()
	e.Step()
}

func TestAddPartitionOnClassicEngineReturnsSelf(t *testing.T) {
	e := NewEngine()
	if p := e.AddPartition(); p != e {
		t.Fatal("classic AddPartition must return the engine itself")
	}
}

func TestBindRemoteZeroDelayPanics(t *testing.T) {
	e := NewParallelEngine(2)
	p1 := e.AddPartition()
	l := NewLink(e, &Sink{}, 1e9, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("BindRemote with zero delay must panic (no conservative lookahead)")
		}
	}()
	l.BindRemote(p1)
}

func TestBindRemoteForeignEnginePanics(t *testing.T) {
	e := NewParallelEngine(2)
	other := NewParallelEngine(2)
	l := NewLink(e, &Sink{}, 1e9, Millisecond, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("BindRemote across unrelated engines must panic")
		}
	}()
	l.BindRemote(other)
}

// TestCrossPartitionSchedulePanicsMidWindow: an event that schedules onto
// another partition must panic — whether the victim's turn in the window is
// still to come (the event would land ahead of its clock) or is over (behind
// it), and whatever number the engine was built with.
func TestCrossPartitionSchedulePanicsMidWindow(t *testing.T) {
	cases := []struct {
		name             string
		offender, victim int
		bystander        int // when ≥ 0, a partition with an event of its own in the window
	}{
		{"barrier", 0, 2, 3},
		{"inline", 0, 2, -1},
		{"inline-foreign", 1, 2, -1},
		{"victim-next", 0, 2, 2},
		{"victim-done", 2, 0, 0},
	}
	for _, tc := range cases {
		for _, domains := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/domains=%d", tc.name, domains), func(t *testing.T) {
				root := NewParallelEngine(domains)
				parts := []*Engine{root, root.AddPartition(), root.AddPartition(), root.AddPartition()}
				off, vic := parts[tc.offender], parts[tc.victim]
				off.At(10, func() { vic.At(20, func() {}) })
				if tc.bystander >= 0 {
					parts[tc.bystander].At(10, func() {})
				}
				defer func() {
					if recover() == nil {
						t.Fatal("scheduling onto another partition mid-window must panic")
					}
				}()
				root.RunUntil(100)
			})
		}
	}
}

// TestPanickingEventLeavesEngineRunnable: a run that dies on a panicking
// event must leave every partition as between windows. After recover, Pending
// counts exactly the events that did not run, a second run executes them in
// (at, seq) order, and the partition that panicked is again refused as the
// target of a cross-partition schedule — it used to stay marked active, which
// let the next run's offenders through. The number the engine is built with
// selects nothing, here as anywhere.
func TestPanickingEventLeavesEngineRunnable(t *testing.T) {
	// Scheduled in this order, so (at, seq) order is 1 2 5 0 3 4.
	times := []Time{30, 10, 20, 30, 40, 20}
	order := []int{1, 2, 5, 0, 3, 4}
	for _, domains := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("domains=%d", domains), func(t *testing.T) {
			root := NewParallelEngine(domains)
			parts := []*Engine{root, root.AddPartition(), root.AddPartition(), root.AddPartition()}
			ran := make([][]int, len(parts))
			for pi, p := range parts {
				for id, at := range times {
					pi, id := pi, id
					p.At(at, func() {
						ran[pi] = append(ran[pi], id)
						if pi == 0 && id == 2 {
							panic("boom")
						}
					})
				}
			}
			mustPanic := func(what string) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatalf("%s did not panic", what)
					}
				}()
				root.RunUntil(100)
			}
			mustPanic("the run with the panicking event")

			// No link crosses partitions, so the run is one window, and
			// partition 0 died in it before any other had its turn.
			left := len(parts) * len(times)
			for pi, p := range parts {
				left -= len(ran[pi])
				if pi > 0 && len(ran[pi]) != 0 {
					t.Errorf("partition %d ran %d events after partition 0 panicked", pi, len(ran[pi]))
				}
				if p.q.open || p.active {
					t.Errorf("partition %d left with hole open = %v, active = %v", pi, p.q.open, p.active)
				}
			}
			if len(ran[0]) != 2 {
				t.Fatalf("partition 0 ran %v before the panic, want [1 2]", ran[0])
			}
			if got := root.Pending(); got != left {
				t.Fatalf("Pending = %d after the panic, want the %d events that did not run", got, left)
			}

			root.RunUntil(100)
			for pi := range parts {
				if fmt.Sprint(ran[pi]) != fmt.Sprint(order) {
					t.Errorf("partition %d ran %v over both runs, want %v", pi, ran[pi], order)
				}
			}
			if got := root.Pending(); got != 0 {
				t.Errorf("Pending = %d after the second run, want 0", got)
			}

			parts[1].At(100, func() { parts[0].At(100, func() {}) })
			mustPanic("scheduling onto the partition that had panicked")
		})
	}
}

// ringLog is one partition's private arrival record.
type ringLog struct {
	arrivals []string
}

// buildRing wires partitions 0..n-1 in a ring of cross-partition links. Each
// arrival is recorded with virtual time and forwarded after a local delay.
// It returns the per-partition logs and the engine.
func buildRing(parts, hops int) (*Engine, []*ringLog) {
	root := NewParallelEngine(1)
	engs := []*Engine{root}
	for i := 1; i < parts; i++ {
		engs = append(engs, root.AddPartition())
	}
	logs := make([]*ringLog, parts)
	links := make([]*Link, parts)
	for i := range logs {
		logs[i] = &ringLog{}
	}
	for i := 0; i < parts; i++ {
		next := (i + 1) % parts
		links[i] = NewLink(engs[i], nil, 1e9, Time(50+10*i)*Microsecond, NewDropTail(1<<20)).BindRemote(engs[next])
	}
	for i := 0; i < parts; i++ {
		i := i
		prev := (i + parts - 1) % parts
		links[prev].SetTarget(HandlerFunc(func(p *Packet) {
			logs[i].arrivals = append(logs[i].arrivals,
				fmt.Sprintf("p%d t=%d flow=%d size=%d", i, engs[i].Now(), p.Flow, p.Size))
			if p.Hop < 1000 { // bound total work
				p.Hop++
				links[i].Send(p)
			} else {
				FreePacket(p)
			}
		}))
	}
	// Seed traffic: several packets injected at distinct partitions/times.
	for i := 0; i < hops; i++ {
		src := i % parts
		at := Time(i) * 100 * Microsecond
		flow := FlowID(i)
		size := 200 + 100*i
		engs[src].At(at, func() {
			p := AllocPacket()
			p.Flow, p.Size = flow, size
			links[src].Send(p)
		})
	}
	return root, logs
}

// TestParallelRingByteIdenticalAcrossDomains runs the ring and demands the
// per-partition arrival logs recorded at d5da1b5, where 1, 2, 4 and 8 worker
// domains all produced them.
func TestParallelRingByteIdenticalAcrossDomains(t *testing.T) {
	eng, logs := buildRing(5, 12)
	eng.RunUntil(200 * Millisecond)
	h := fnv.New64a()
	n := 0
	for _, lg := range logs {
		for _, a := range lg.arrivals {
			io.WriteString(h, a+"\n")
			n++
		}
	}
	if got := h.Sum64(); n != 12012 || got != 0xa9c0e4feb79b72ec {
		t.Fatalf("%d arrivals with fnv64a %#016x, recorded 12012 with 0xa9c0e4feb79b72ec", n, got)
	}
}

// TestPartitionsTraceInExecutionOrder: every partition traces straight into
// the caller's tracer, so on overflow the ring keeps the newest Cap events in
// execution order (window by window, interleaving the partitions) and the
// bound liteflow_trace_evicted_total counts every eviction.
func TestPartitionsTraceInExecutionOrder(t *testing.T) {
	const capacity = 8
	reg, tr := obs.NewRegistry(), obs.NewTracer(capacity)
	sc := obs.New(reg, tr)
	root := NewParallelEngine(1)
	parts := []*Engine{root.AddPartition(), root.AddPartition()}
	var order []string // "<name> <flow>" of every traced event, as executed
	trace := func(p *Engine, name string, flow FlowID) {
		order = append(order, fmt.Sprintf("%s %d", name, flow))
		sc.Event1("test", name, p.Now(), "flow", int64(flow))
	}
	// Each partition sends to the other over a 1 ms cross link, so the 20 ms
	// of traffic runs in about twenty windows, and both ends trace.
	var links [2]*Link
	for i, p := range parts {
		dst := parts[1-i]
		rx := HandlerFunc(func(pkt *Packet) {
			trace(dst, "rx", pkt.Flow)
			FreePacket(pkt)
		})
		links[i] = NewLink(p, rx, 1e9, Millisecond, NewDropTail(1<<20)).BindRemote(dst)
	}
	for i, p := range parts {
		for k := 0; k < 60; k++ {
			flow := FlowID(1000*(i+1) + k)
			l := links[i]
			p.At(Time(k)*300*Microsecond+Time(i)*150*Microsecond, func() {
				trace(p, "tx", flow)
				pkt := AllocPacket()
				pkt.Flow, pkt.Size = flow, 500
				l.Send(pkt)
			})
		}
	}
	root.Run()
	if root.Lookahead() != Millisecond {
		t.Fatalf("lookahead %d, want the cross links' %d", root.Lookahead(), Millisecond)
	}
	var kept []string
	for _, e := range tr.Events() {
		kept = append(kept, fmt.Sprintf("%s %d", e.Name, e.Args[0].Val))
	}
	if want := order[len(order)-capacity:]; fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Errorf("ring kept %q, want the last %d executed %q", kept, capacity, want)
	}
	if got, want := tr.Evicted(), int64(len(order)-capacity); got != want {
		t.Errorf("Evicted() = %d, want %d of %d events", got, want, len(order))
	}
	if got := reg.Value("liteflow_trace_evicted_total"); got != float64(tr.Evicted()) {
		t.Errorf("liteflow_trace_evicted_total = %v, Evicted() = %d", got, tr.Evicted())
	}
}

// ---------------------------------------------------------------------------
// Cross-domain packet conservation under randomized topologies and faults
// ---------------------------------------------------------------------------

// starRun is one deterministic star-topology run: nSrc source partitions
// inject precomputed traffic through a central switch partition toward nDst
// sink partitions, with precomputed mid-run rate faults on the delivery
// links. It returns (injected, delivered, dropped) plus a canonical
// description of all counters.
func starRun(t *testing.T, seed int64) (int64, int64, int64, string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nSrc := 2 + r.Intn(3)
	nDst := 2 + r.Intn(3)
	nPkts := 50 + r.Intn(200)

	// Precompute every random value before the engine starts: a draw made
	// inside an event would depend on the order partitions run in.
	type injection struct {
		src, dst, size int
		at             Time
	}
	injections := make([]injection, nPkts)
	for i := range injections {
		injections[i] = injection{
			src:  r.Intn(nSrc),
			dst:  r.Intn(nDst),
			size: 100 + r.Intn(1400),
			at:   Time(r.Intn(5000)) * Microsecond,
		}
	}
	type fault struct {
		dst  int
		at   Time
		rate int64
	}
	faults := make([]fault, 1+r.Intn(4))
	for i := range faults {
		faults[i] = fault{
			dst:  r.Intn(nDst),
			at:   Time(1000+r.Intn(3000)) * Microsecond,
			rate: int64(1e5 + r.Intn(1e6)),
		}
	}
	queueCap := 2000 + r.Intn(4000) // tiny: force drops

	root := NewParallelEngine(1)
	swEng := root.AddPartition()
	sw := NewSwitch()
	srcEng := make([]*Engine, nSrc)
	upLinks := make([]*Link, nSrc)
	upQs := make([]*DropTail, nSrc)
	for i := 0; i < nSrc; i++ {
		srcEng[i] = root.AddPartition()
		upQs[i] = NewDropTail(queueCap)
		upLinks[i] = NewLink(srcEng[i], sw, 1e8, 100*Microsecond, upQs[i]).BindRemote(swEng)
	}
	sinks := make([]*Sink, nDst)
	downLinks := make([]*Link, nDst)
	downQs := make([]*DropTail, nDst)
	for j := 0; j < nDst; j++ {
		dstEng := root.AddPartition()
		sinks[j] = &Sink{}
		downQs[j] = NewDropTail(queueCap)
		downLinks[j] = NewLink(swEng, sinks[j], 1e7, 100*Microsecond, downQs[j]).BindRemote(dstEng)
		sw.AddPort(600+j, downLinks[j])
		sw.AddRoute(600+j, 600+j)
	}

	injected := make([]int64, nSrc)
	for _, in := range injections {
		in := in
		srcEng[in.src].At(in.at, func() {
			p := AllocPacket()
			p.Dst = 600 + in.dst
			p.Flow = FlowID(in.src)
			p.Size = in.size
			upLinks[in.src].Send(p)
			injected[in.src]++
		})
	}
	// Rate faults execute in the switch partition, which owns the delivery
	// links.
	for _, f := range faults {
		f := f
		swEng.At(f.at, func() { downLinks[f.dst].SetRate(f.rate) })
	}

	root.Run()

	var tot, delivered, dropped int64
	for _, n := range injected {
		tot += n
	}
	for _, s := range sinks {
		delivered += s.Packets
	}
	for _, q := range upQs {
		dropped += int64(q.Drops())
	}
	for _, q := range downQs {
		dropped += int64(q.Drops())
	}
	desc := fmt.Sprintf("injected=%v delivered=%d dropped=%d", injected, delivered, dropped)
	for j, s := range sinks {
		desc += fmt.Sprintf(" sink%d=%d", j, s.Packets)
	}
	return tot, delivered, dropped, desc
}

// TestCrossDomainPacketConservation checks, for randomized star topologies
// with injected rate faults, that every injected packet is delivered or
// dropped once the engine drains.
func TestCrossDomainPacketConservation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		injected, delivered, dropped, desc := starRun(t, seed)
		if injected != delivered+dropped {
			t.Fatalf("seed=%d: conservation violated: %s (injected=%d, accounted=%d)",
				seed, desc, injected, delivered+dropped)
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation guards for the event loop
// ---------------------------------------------------------------------------

// TestEngineSteadyStateZeroAllocs pins the zero-allocation contract of the
// windowless hot path: a self-rescheduling timer plus pooled packets over a
// short link and over a 10 ms one that keeps a thousand in propagation (its
// ring wraps ten times during the measurement) must not touch the heap once
// queues, rings and pools are warm.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard runs in the plain job")
	}
	e := NewEngine()
	sink := HandlerFunc(func(p *Packet) { FreePacket(p) })
	near := NewLink(e, sink, 1e9, 10*Microsecond, NewDropTail(1<<20))
	far := NewLink(e, sink, 1e9, 10*Millisecond, NewDropTail(1<<20))
	ticks := 0
	var tick func()
	tick = func() {
		p := e.AllocPacket()
		p.Size = 1000
		if ticks++; ticks%10 == 0 {
			near.Send(p)
		} else {
			far.Send(p)
		}
		e.After(10*Microsecond, tick)
	}
	e.After(0, tick)
	e.RunUntil(30 * Millisecond) // warm: pool populated, heap and rings sized
	if e.flying < 800 {
		t.Fatalf("%d packets in propagation behind ring heads, want hundreds", e.flying)
	}
	deadline := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		deadline += Millisecond
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Errorf("steady-state event loop allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkEngineStep measures the raw schedule+dispatch cost of the typed
// queue (the replacement for the boxing container/heap path).
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() { e.After(10, fn) }
	e.After(0, fn)
	e.Step() // prime: one event always pending
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEventQueueHold is the hold model, the classic load for a pending
// event set: with N events pending, pop the minimum and push it back δ later.
// δ comes from a fixed seeded table mixing what a packet simulation schedules
// — a segment's serialization, CPU work, propagation, the odd RTO — so new
// events land at every depth of the heap, ties included. (BenchmarkEngineStep
// keeps one event pending and never sifts.)
func BenchmarkEventQueueHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delta [1024]Time
	for i := range delta {
		switch r := rng.Intn(100); {
		case r < 40:
			delta[i] = 12 * Microsecond // 1500 B at 1 Gbps: ties galore
		case r < 70:
			delta[i] = Time(rng.Intn(50)) * Microsecond
		case r < 97:
			delta[i] = 5*Millisecond + Time(rng.Intn(100))*Microsecond
		default:
			delta[i] = 200 * Millisecond
		}
	}
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			var q eventQueue
			var seq uint64
			for i := 0; i < n; i++ {
				seq++
				q.push(event{at: delta[i%len(delta)], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				ev.at += delta[i%len(delta)]
				ev.seq = seq
				q.push(ev)
			}
			if q.len() != n {
				b.Fatalf("%d events pending after the run, want %d", q.len(), n)
			}
		})
	}
}

// BenchmarkParallelWindowLoop measures windowed execution overhead on the
// ring topology (cross-partition handoffs every window).
func BenchmarkParallelWindowLoop(b *testing.B) {
	eng, _ := buildRing(5, 12)
	b.ReportAllocs()
	b.ResetTimer()
	deadline := Time(0)
	for i := 0; i < b.N; i++ {
		deadline += Millisecond
		eng.RunUntil(deadline)
	}
}
