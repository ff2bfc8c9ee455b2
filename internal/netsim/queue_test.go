package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkPkt(size int) *Packet { return &Packet{Size: size} }

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(10000)
	for i := 0; i < 5; i++ {
		p := mkPkt(100)
		p.Seq = int64(i)
		if !q.Enqueue(p) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 500 {
		t.Fatalf("Len/Bytes = %d/%d, want 5/500", q.Len(), q.Bytes())
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d returned %+v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Error("dequeue on empty queue must return nil")
	}
}

func TestDropTailCapacity(t *testing.T) {
	q := NewDropTail(250)
	if !q.Enqueue(mkPkt(100)) || !q.Enqueue(mkPkt(100)) {
		t.Fatal("first two packets must fit")
	}
	if q.Enqueue(mkPkt(100)) {
		t.Error("third packet must be dropped (300 > 250)")
	}
	if q.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", q.Drops())
	}
	// A smaller packet that fits must still be accepted.
	if !q.Enqueue(mkPkt(50)) {
		t.Error("50-byte packet must fit in remaining 50 bytes")
	}
}

func TestDropTailECNMarking(t *testing.T) {
	q := NewECNQueue(100000, 300)
	for i := 0; i < 3; i++ {
		p := mkPkt(100)
		q.Enqueue(p)
		if p.CE {
			t.Fatalf("packet %d below threshold must not be marked", i)
		}
	}
	p := mkPkt(100)
	q.Enqueue(p) // backlog is now 300 ≥ K
	if !p.CE {
		t.Error("packet at threshold must be CE-marked")
	}
}

func TestDropTailNoMarkingWhenDisabled(t *testing.T) {
	q := NewDropTail(100000)
	for i := 0; i < 100; i++ {
		p := mkPkt(100)
		q.Enqueue(p)
		if p.CE {
			t.Fatal("marking disabled but packet got CE")
		}
	}
}

func TestDropTailCompaction(t *testing.T) {
	q := NewDropTail(1 << 30)
	// Push/pop enough to trigger the compaction path several times.
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			p := mkPkt(1)
			p.Seq = int64(round*200 + i)
			q.Enqueue(p)
		}
		for i := 0; i < 200; i++ {
			p := q.Dequeue()
			if p.Seq != int64(round*200+i) {
				t.Fatalf("order broken after compaction: got %d want %d", p.Seq, round*200+i)
			}
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("queue should be empty, Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
}

// Property: bytes accounting is always the sum of queued packet sizes.
func TestDropTailBytesInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewDropTail(5000)
		queued := 0
		cnt := 0
		for i := 0; i < 300; i++ {
			if r.Intn(2) == 0 {
				size := 1 + r.Intn(200)
				if q.Enqueue(mkPkt(size)) {
					queued += size
					cnt++
				}
			} else if p := q.Dequeue(); p != nil {
				queued -= p.Size
				cnt--
			}
			if q.Bytes() != queued || q.Len() != cnt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrioQueueStrictPriority(t *testing.T) {
	q := NewPrioQueue(1<<20, 0)
	lo := mkPkt(100)
	lo.Prio = 5
	hi := mkPkt(100)
	hi.Prio = 0
	mid := mkPkt(100)
	mid.Prio = 2
	q.Enqueue(lo)
	q.Enqueue(hi)
	q.Enqueue(mid)
	if got := q.Dequeue(); got != hi {
		t.Error("priority 0 must dequeue first")
	}
	if got := q.Dequeue(); got != mid {
		t.Error("priority 2 must dequeue second")
	}
	if got := q.Dequeue(); got != lo {
		t.Error("priority 5 must dequeue last")
	}
}

func TestPrioQueueFIFOWithinBand(t *testing.T) {
	q := NewPrioQueue(1<<20, 0)
	for i := 0; i < 5; i++ {
		p := mkPkt(10)
		p.Prio = 3
		p.Seq = int64(i)
		q.Enqueue(p)
	}
	for i := 0; i < 5; i++ {
		if p := q.Dequeue(); p.Seq != int64(i) {
			t.Fatalf("band FIFO broken: got %d want %d", p.Seq, i)
		}
	}
}

func TestPrioQueueSharedCapacityAndClamping(t *testing.T) {
	q := NewPrioQueue(250, 0)
	a := mkPkt(100)
	a.Prio = -3 // clamps to band 0
	b := mkPkt(100)
	b.Prio = 99 // clamps to last band
	if !q.Enqueue(a) || !q.Enqueue(b) {
		t.Fatal("both packets must fit")
	}
	if q.Enqueue(mkPkt(100)) {
		t.Error("shared capacity must reject the third packet")
	}
	if q.Dequeue() != a {
		t.Error("clamped-high priority must drain first")
	}
	if q.Dequeue() != b {
		t.Error("clamped-low priority must drain last")
	}
	if q.Dequeue() != nil || q.Bytes() != 0 {
		t.Error("queue must be empty after draining")
	}
}

func TestPrioQueueECNMarksOnTotalBacklog(t *testing.T) {
	q := NewPrioQueue(1<<20, 150)
	p1 := mkPkt(100)
	p1.Prio = 0
	q.Enqueue(p1)
	p2 := mkPkt(100)
	p2.Prio = 7
	q.Enqueue(p2) // backlog 100 < 150 at enqueue time: unmarked
	if p2.CE {
		t.Error("p2 enqueued below threshold must be unmarked")
	}
	p3 := mkPkt(100)
	q.Enqueue(p3) // backlog 200 ≥ 150
	if !p3.CE {
		t.Error("p3 above threshold must be marked")
	}
}

func BenchmarkDropTailEnqueueDequeue(b *testing.B) {
	q := NewDropTail(1 << 30)
	p := mkPkt(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}
