package netsim

import "testing"

// buildY returns a switch with two ports (to node 1 and node 2) feeding two
// sinks, plus the engine.
func buildY(t *testing.T) (*Engine, *Switch, *Sink, *Sink) {
	t.Helper()
	e := NewEngine()
	s := NewSwitch()
	sink1, sink2 := &Sink{}, &Sink{}
	s.AddPort(1, NewLink(e, sink1, 1e9, 0, nil))
	s.AddPort(2, NewLink(e, sink2, 1e9, 0, nil))
	return e, s, sink1, sink2
}

func TestSwitchDestinationRouting(t *testing.T) {
	e, s, sink1, sink2 := buildY(t)
	s.AddRoute(1, 1)
	s.AddRoute(2, 2)
	s.HandlePacket(&Packet{Dst: 1, Size: 100})
	s.HandlePacket(&Packet{Dst: 2, Size: 100})
	s.HandlePacket(&Packet{Dst: 2, Size: 100})
	e.Run()
	if sink1.Packets != 1 || sink2.Packets != 2 {
		t.Errorf("sink1=%d sink2=%d, want 1/2", sink1.Packets, sink2.Packets)
	}
}

// noRouteDsts are destinations the table of a switch with one route, to node
// 5, does not cover: beyond it, in a gap inside it, and negative.
var noRouteDsts = []int{99, 3, -1}

func TestSwitchUnroutedCounted(t *testing.T) {
	_, s, _, _ := buildY(t)
	s.AddRoute(5, 2)
	for _, dst := range noRouteDsts {
		s.HandlePacket(&Packet{Dst: dst, Size: 100})
	}
	if s.unrouted != int64(len(noRouteDsts)) {
		t.Errorf("Unrouted = %d, want %d", s.unrouted, len(noRouteDsts))
	}
}

func TestSwitchECMPFlowSticky(t *testing.T) {
	e, s, sink1, sink2 := buildY(t)
	s.AddRoute(5, 1, 2) // 2-way ECMP towards dst 5
	const flows = 64
	const perFlow = 10
	for f := 0; f < flows; f++ {
		for i := 0; i < perFlow; i++ {
			s.HandlePacket(&Packet{Dst: 5, Flow: FlowID(f), Size: 100})
		}
	}
	e.Run()
	// Every flow's packets must all land on one sink: totals divisible by
	// perFlow per flow means each sink count is a multiple of perFlow.
	if sink1.Packets%perFlow != 0 || sink2.Packets%perFlow != 0 {
		t.Errorf("flows split across paths: sink1=%d sink2=%d", sink1.Packets, sink2.Packets)
	}
	if sink1.Packets+sink2.Packets != flows*perFlow {
		t.Errorf("lost packets: %d+%d", sink1.Packets, sink2.Packets)
	}
	// And the hash must actually spread flows across both paths.
	if sink1.Packets == 0 || sink2.Packets == 0 {
		t.Error("ECMP did not spread flows at all")
	}
}

func TestSwitchExplicitPath(t *testing.T) {
	e, s, sink1, sink2 := buildY(t)
	s.AddRoute(5, 2) // table says port 2 ...
	p := &Packet{Dst: 5, Size: 100, Path: []int{1}}
	s.HandlePacket(p) // ... but the pinned path says node 1
	e.Run()
	if sink1.Packets != 1 || sink2.Packets != 0 {
		t.Errorf("explicit path ignored: sink1=%d sink2=%d", sink1.Packets, sink2.Packets)
	}
	if p.Hop != 1 {
		t.Errorf("Hop = %d, want 1", p.Hop)
	}
}

func TestSwitchExplicitPathFallsBackOnUnknownHop(t *testing.T) {
	e, s, sink1, _ := buildY(t)
	s.AddRoute(5, 1)
	p := &Packet{Dst: 5, Size: 100, Path: []int{77}} // node 77 not a port
	s.HandlePacket(p)
	e.Run()
	if sink1.Packets != 1 {
		t.Error("must fall back to table routing for unknown pinned hop")
	}
}

func TestSwitchExplicitPathExhaustedUsesTable(t *testing.T) {
	e, s, _, sink2 := buildY(t)
	s.AddRoute(5, 2)
	p := &Packet{Dst: 5, Size: 100, Path: []int{9}, Hop: 1} // path consumed
	s.HandlePacket(p)
	e.Run()
	if sink2.Packets != 1 {
		t.Error("consumed path must use table routing")
	}
}

func TestSwitchRouteViaUnknownPortPanics(t *testing.T) {
	_, s, _, _ := buildY(t)
	defer func() {
		if recover() == nil {
			t.Error("AddRoute via unknown port must panic")
		}
	}()
	s.AddRoute(5, 99)
}

func TestSwitchRouteToNegativeNodePanics(t *testing.T) {
	_, s, _, _ := buildY(t)
	defer func() {
		if recover() == nil {
			t.Error("AddRoute to a negative node ID must panic")
		}
	}()
	s.AddRoute(-1, 1)
}

func TestPacketPayloadBytes(t *testing.T) {
	d := &Packet{Size: HeaderBytes + 100}
	if d.PayloadBytes() != 100 {
		t.Errorf("PayloadBytes = %d, want 100", d.PayloadBytes())
	}
	a := &Packet{Size: AckSize, Ack: true}
	if a.PayloadBytes() != 0 {
		t.Error("ACK payload must be 0")
	}
	tiny := &Packet{Size: 10}
	if tiny.PayloadBytes() != 0 {
		t.Error("sub-header packet payload must clamp to 0")
	}
}
