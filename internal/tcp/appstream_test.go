package tcp

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// TestPushDeliversMessagesWithTags drives a request/response exchange over
// one app-limited stream: every pushed message surfaces its tag exactly once
// via OnApp, in push order, and the byte counts line up.
func TestPushDeliversMessagesWithTags(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, 2*netsim.Millisecond, 1<<20)
	s := NewSender(a, 1, b.ID, 0, NewFixedRate(50_000_000))
	r := NewReceiver(b, 1, a.ID)

	var tags []int64
	r.OnApp = func(tag int64, now netsim.Time) { tags = append(tags, tag) }

	s.Push(500, 101)    // fits one segment
	s.Push(10_000, 102) // spans several segments; tag only on the first
	s.Push(1, 103)      // minimum message
	s.Push(40_000, 104) // larger than a cwnd's worth
	s.Start()
	eng.RunUntil(2 * netsim.Second)

	want := []int64{101, 102, 103, 104}
	if len(tags) != len(want) {
		t.Fatalf("OnApp fired %d times (%v), want %v", len(tags), tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
	const total = 500 + 10_000 + 1 + 40_000
	if r.UniqueBytes() != total {
		t.Errorf("receiver got %d unique bytes, want %d", r.UniqueBytes(), total)
	}
	if s.ackedBytes != total {
		t.Errorf("sender acked %d bytes, want %d", s.ackedBytes, total)
	}
}

// TestPushMidRunWakesIdleSender parks a drained app stream long enough for
// its RTO to disarm, then pushes again: the stream must wake up and deliver.
func TestPushMidRunWakesIdleSender(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, 2*netsim.Millisecond, 1<<20)
	s := NewSender(a, 1, b.ID, 0, NewFixedRate(50_000_000))
	r := NewReceiver(b, 1, a.ID)
	var tags []int64
	r.OnApp = func(tag int64, now netsim.Time) { tags = append(tags, tag) }

	s.Push(2000, 1)
	s.Start()
	// Idle for many MinRTO periods, then push from an engine event (the
	// actor pattern: Push always runs on the sender host's partition).
	eng.At(3*netsim.Second, func() { s.Push(3000, 2) })
	eng.RunUntil(4 * netsim.Second)

	if len(tags) != 2 || tags[0] != 1 || tags[1] != 2 {
		t.Fatalf("tags = %v, want [1 2]", tags)
	}
	if r.UniqueBytes() != 5000 {
		t.Errorf("receiver got %d unique bytes, want 5000", r.UniqueBytes())
	}
}

// TestPushTagSurvivesLoss runs the tagged stream across a lossy link: the
// retransmitted first segment must still deliver its tag, exactly once.
func TestPushTagSurvivesLoss(t *testing.T) {
	eng := netsim.NewEngine()
	a := NewHost(eng, 1)
	b := NewHost(eng, 2)
	ab := netsim.NewLink(eng, b, 100_000_000, 2*netsim.Millisecond, netsim.NewDropTail(1<<20))
	ba := netsim.NewLink(eng, a, 100_000_000, 2*netsim.Millisecond, netsim.NewDropTail(1<<20))
	a.SetEgress(ab)
	b.SetEgress(ba)
	ab.SetLoss(0.2, 42) // heavy forward loss

	s := NewSender(a, 1, b.ID, 0, NewFixedRate(50_000_000))
	s.MinRTO = 20 * netsim.Millisecond
	r := NewReceiver(b, 1, a.ID)
	var tags []int64
	r.OnApp = func(tag int64, now netsim.Time) { tags = append(tags, tag) }

	const n = 20
	for i := 1; i <= n; i++ {
		s.Push(5000, int64(i))
	}
	s.Start()
	eng.RunUntil(30 * netsim.Second)

	if ab.LossDrops() == 0 {
		t.Fatal("loss link dropped nothing; SetLoss inert")
	}
	if len(tags) != n {
		t.Fatalf("OnApp fired %d times, want %d (tags %v)", len(tags), n, tags)
	}
	seen := make(map[int64]bool)
	for _, tag := range tags {
		if seen[tag] {
			t.Fatalf("tag %d surfaced twice", tag)
		}
		seen[tag] = true
	}
	if r.UniqueBytes() != n*5000 {
		t.Errorf("receiver got %d unique bytes, want %d", r.UniqueBytes(), n*5000)
	}
}

// TestOnAckedReportsUploadProgress checks the acknowledged byte count seen
// at each ACK is monotone and reaches the pushed total.
func TestOnAckedReportsUploadProgress(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, 2*netsim.Millisecond, 1<<20)
	var s *Sender
	var last int64
	s = NewSender(a, 1, b.ID, 0, ackTap{NewFixedRate(50_000_000), func(AckInfo) {
		if s.ackedBytes < last {
			t.Fatalf("acked bytes went backwards: %d after %d", s.ackedBytes, last)
		}
		last = s.ackedBytes
	}})
	NewReceiver(b, 1, a.ID)
	s.Push(100_000, 7)
	s.Start()
	eng.RunUntil(2 * netsim.Second)
	if last != 100_000 {
		t.Errorf("final acked bytes = %d, want 100000", last)
	}
}

// TestPushPanicsOnBoundedSender documents the Size==0 contract.
func TestPushPanicsOnBoundedSender(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, 2*netsim.Millisecond, 1<<20)
	s := NewSender(a, 1, b.ID, 1000, NewFixedRate(50_000_000))
	defer func() {
		if recover() == nil {
			t.Fatal("Push on a bounded sender did not panic")
		}
	}()
	s.Push(100, 1)
}
