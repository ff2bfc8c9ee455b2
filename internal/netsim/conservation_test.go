package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: packets are conserved through a link — everything sent is either
// delivered, still queued, in flight (transmitting/propagating), or was
// dropped by the queue. Checked after the engine drains, when in-flight is
// zero.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		sink := &Sink{}
		q := NewDropTail(1 + r.Intn(20000))
		l := NewLink(e, sink, int64(1+r.Intn(1_000_000_000)), Time(r.Intn(1000)), q)
		sent := int64(0)
		n := 1 + r.Intn(300)
		for i := 0; i < n; i++ {
			at := Time(r.Intn(10000))
			e.At(at, func() {
				l.Send(&Packet{Size: 100 + r.Intn(1400)})
				sent++
			})
		}
		e.Run()
		return sent == sink.Packets+int64(q.Drops()) && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a switch with complete routes never loses packets — everything
// handled is delivered or dropped at a queue, and per-destination delivery
// respects the routing table.
func TestSwitchConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		s := NewSwitch()
		const ports = 3
		sinks := make([]*Sink, ports)
		for p := 0; p < ports; p++ {
			sinks[p] = &Sink{}
			s.AddPort(p+1, NewLink(e, sinks[p], 1e9, 0, NewDropTail(1<<30)))
			s.AddRoute(100+p, p+1)
		}
		counts := make([]int64, ports)
		n := 1 + r.Intn(500)
		for i := 0; i < n; i++ {
			dst := r.Intn(ports)
			counts[dst]++
			s.HandlePacket(&Packet{Dst: 100 + dst, Flow: FlowID(i), Size: 100})
		}
		e.Run()
		for p := 0; p < ports; p++ {
			if sinks[p].Packets != counts[p] {
				return false
			}
		}
		return s.unrouted == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
