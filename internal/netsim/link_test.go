package netsim

import "testing"

func TestLinkSerializationAndDelay(t *testing.T) {
	e := NewEngine()
	var arrived Time = -1
	h := HandlerFunc(func(p *Packet) { arrived = e.Now() })
	// 8 Mbps link: a 1000-byte packet serializes in 1 ms. Delay 2 ms.
	l := NewLink(e, h, 8_000_000, 2*Millisecond, nil)
	l.Send(&Packet{Size: 1000})
	e.Run()
	want := 1*Millisecond + 2*Millisecond
	if arrived != want {
		t.Errorf("arrival = %d, want %d", arrived, want)
	}
	if l.TxPackets() != 1 || l.TxBytes() != 1000 {
		t.Errorf("counters = %d pkts / %d bytes", l.TxPackets(), l.TxBytes())
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	e := NewEngine()
	var arrivals []Time
	h := HandlerFunc(func(p *Packet) { arrivals = append(arrivals, e.Now()) })
	l := NewLink(e, h, 8_000_000, 0, nil) // 1 ms per 1000B packet, no delay
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1000})
	}
	e.Run()
	want := []Time{1 * Millisecond, 2 * Millisecond, 3 * Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestLinkPipelinesPropagation(t *testing.T) {
	// Propagation overlaps with the next packet's serialization: with delay
	// 10 ms and 1 ms tx time, two packets arrive at 11 ms and 12 ms (not 22).
	e := NewEngine()
	var arrivals []Time
	h := HandlerFunc(func(p *Packet) { arrivals = append(arrivals, e.Now()) })
	l := NewLink(e, h, 8_000_000, 10*Millisecond, nil)
	l.Send(&Packet{Size: 1000})
	l.Send(&Packet{Size: 1000})
	e.Run()
	if len(arrivals) != 2 || arrivals[0] != 11*Millisecond || arrivals[1] != 12*Millisecond {
		t.Errorf("arrivals = %v, want [11ms 12ms]", arrivals)
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	e := NewEngine()
	var got int
	h := HandlerFunc(func(p *Packet) { got++ })
	q := NewDropTail(1500) // room for one queued packet beyond the in-flight one
	l := NewLink(e, h, 8_000_000, 0, q)
	// First Send dequeues immediately into transmission; next fills queue;
	// third is dropped.
	l.Send(&Packet{Size: 1500})
	l.Send(&Packet{Size: 1500})
	l.Send(&Packet{Size: 1500})
	e.Run()
	if got != 2 {
		t.Errorf("delivered = %d, want 2", got)
	}
	if q.Drops() != 1 {
		t.Errorf("drops = %d, want 1", q.Drops())
	}
}

func TestLinkZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-rate link must panic")
		}
	}()
	NewLink(NewEngine(), &Sink{}, 0, 0, nil)
}

func TestLinkTxTime(t *testing.T) {
	l := NewLink(NewEngine(), &Sink{}, 1_000_000_000, 0, nil) // 1 Gbps
	if got := l.TxTime(1250); got != 10*Microsecond {
		t.Errorf("TxTime(1250B @1Gbps) = %d, want 10µs", got)
	}
}

func TestPipeBidirectional(t *testing.T) {
	e := NewEngine()
	var aGot, bGot int
	a := HandlerFunc(func(p *Packet) { aGot++ })
	b := HandlerFunc(func(p *Packet) { bGot++ })
	aToB := NewLink(e, b, 1_000_000_000, Millisecond, NewDropTail(1<<20))
	bToA := NewLink(e, a, 1_000_000_000, Millisecond, NewDropTail(1<<20))
	aToB.Send(&Packet{Size: 100})
	bToA.Send(&Packet{Size: 100})
	e.Run()
	if aGot != 1 || bGot != 1 {
		t.Errorf("aGot=%d bGot=%d, want 1/1", aGot, bGot)
	}
}
