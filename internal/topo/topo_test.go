package topo

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

func TestSpineLeafWiring(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(16)) // 32 hosts
	if len(sl.Hosts) != 32 || len(sl.Leaves) != 2 || len(sl.Spines) != 2 {
		t.Fatalf("fabric = %d hosts / %d leaves / %d spines", len(sl.Hosts), len(sl.Leaves), len(sl.Spines))
	}
	if sl.LeafOf(0) != 0 || sl.LeafOf(15) != 0 || sl.LeafOf(16) != 1 {
		t.Error("LeafOf mapping wrong")
	}
	if !sl.SameLeaf(0, 15) || sl.SameLeaf(15, 16) {
		t.Error("SameLeaf wrong")
	}
}

func TestSpineLeafDelivery(t *testing.T) {
	// A flow between hosts on different leaves must complete.
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(4))
	src, dst := sl.Hosts[0], sl.Hosts[7] // leaf 0 → leaf 1
	var fct netsim.Time
	s := tcp.NewSender(src, 1, dst.ID, 100_000, fixedRate(5e9))
	s.OnComplete = func(d netsim.Time) { fct = d }
	tcp.NewReceiver(dst, 1, src.ID)
	s.Start()
	eng.RunUntil(netsim.Second)
	if fct == 0 {
		t.Fatal("cross-leaf flow did not complete")
	}
	if fct <= 0 || fct > 10*netsim.Millisecond {
		t.Errorf("FCT = %v µs, want µs-scale", float64(fct)/1e3)
	}
}

func TestSpineLeafSameLeafDelivery(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(4))
	src, dst := sl.Hosts[1], sl.Hosts[2]
	s := tcp.NewSender(src, 1, dst.ID, 50_000, fixedRate(5e9))
	done := false
	s.OnComplete = func(netsim.Time) { done = true }
	tcp.NewReceiver(dst, 1, src.ID)
	s.Start()
	eng.RunUntil(netsim.Second)
	if !done {
		t.Fatal("same-leaf flow did not complete")
	}
	// Same-leaf traffic must not cross any spine.
	for _, sp := range sl.Spines {
		for hid := range sl.Hosts {
			if l := sp.Port(LeafIDBase + sl.LeafOf(hid)); l != nil && l.TxPackets() > 0 {
				t.Fatal("same-leaf flow leaked into the spine layer")
			}
		}
	}
}

func TestSpineLeafExplicitPath(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(4))
	src, dst := sl.Hosts[0], sl.Hosts[7]

	// Pin everything through spine 1 and verify spine 0 carries nothing.
	path := sl.PathVia(src.ID, dst.ID, 1)
	if len(path) != 1 || path[0] != SpineIDBase+1 {
		t.Fatalf("PathVia = %v", path)
	}
	for i := 0; i < 50; i++ {
		src.Transmit(&netsim.Packet{
			Flow: netsim.FlowID(i), Dst: dst.ID,
			Size: 1000, Path: append([]int(nil), path...),
		})
	}
	eng.Run()
	spine0Down := sl.Spines[0].Port(LeafIDBase + 1)
	spine1Down := sl.Spines[1].Port(LeafIDBase + 1)
	if spine0Down.TxPackets() != 0 {
		t.Errorf("spine 0 carried %d pinned packets, want 0", spine0Down.TxPackets())
	}
	if spine1Down.TxPackets() != 50 {
		t.Errorf("spine 1 carried %d, want 50", spine1Down.TxPackets())
	}
}

func TestSpineLeafSameLeafPathIsNil(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(4))
	if sl.PathVia(0, 1, 0) != nil {
		t.Error("same-leaf path must be nil")
	}
}

func TestSpineLeafECMPSpreadsFlows(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(8))
	src := sl.Hosts[0]
	for f := 0; f < 64; f++ {
		src.Transmit(&netsim.Packet{Flow: netsim.FlowID(f), Dst: 12, Size: 500})
	}
	eng.Run()
	up0 := sl.Leaves[0].Port(SpineIDBase).TxPackets()
	up1 := sl.Leaves[0].Port(SpineIDBase + 1).TxPackets()
	if up0 == 0 || up1 == 0 {
		t.Errorf("ECMP must use both spines: %d/%d", up0, up1)
	}
	if up0+up1 != 64 {
		t.Errorf("lost packets: %d+%d != 64", up0, up1)
	}
}

func TestSpineLeafAttachCPUs(t *testing.T) {
	eng := netsim.NewEngine()
	sl := BuildSpineLeaf(eng, DefaultSpineLeafOpts(2))
	sl.ProvisionCPUs(4, ksim.DefaultCosts())
	for _, h := range sl.Hosts {
		if h.CPU == nil {
			t.Fatal("host missing CPU")
		}
		// A millisecond of work inside a millisecond of wall time keeps one
		// core of four busy.
		h.CPU.Charge(ksim.Kernel, netsim.Millisecond)
	}
	eng.RunUntil(netsim.Millisecond)
	for i, h := range sl.Hosts {
		if u := h.CPU.Utilization(); u != 0.25 {
			t.Errorf("host %d: utilization %v, want 0.25 of 4 cores", i, u)
		}
	}
}

func TestSpineLeafPrioQueues(t *testing.T) {
	eng := netsim.NewEngine()
	opts := DefaultSpineLeafOpts(2)
	opts.UsePrioQueues = true
	sl := BuildSpineLeaf(eng, opts)
	if _, ok := sl.Leaves[0].Port(0).Queue().(*netsim.PrioQueue); !ok {
		t.Error("prio-queue option must install PrioQueue on ports")
	}
}

func TestDumbbellWiring(t *testing.T) {
	eng := netsim.NewEngine()
	d := BuildDumbbell(eng, TestbedOpts(3))
	if len(d.Senders) != 3 || len(d.Receivers) != 3 {
		t.Fatal("dumbbell host counts wrong")
	}
	// Flow i: sender i → receiver (3+i).
	var fct netsim.Time
	s := tcp.NewSender(d.Senders[1], 5, d.Receivers[1].ID, 200_000, fixedRate(500e6))
	s.OnComplete = func(t netsim.Time) { fct = t }
	tcp.NewReceiver(d.Receivers[1], 5, d.Senders[1].ID)
	s.Start()
	eng.RunUntil(netsim.Second)
	if fct == 0 {
		t.Fatal("dumbbell flow did not complete")
	}
	// RTT is ~10 ms (2×(1.25+2.5+1.25) ms); FCT must exceed one RTT.
	if fct < 10*netsim.Millisecond {
		t.Errorf("FCT = %v ms, must include the 10 ms RTT", float64(fct)/1e6)
	}
}

func TestDumbbellRTT(t *testing.T) {
	eng := netsim.NewEngine()
	d := BuildDumbbell(eng, TestbedOpts(1))
	probe := &srttProbe{fixedRate: 100e6}
	s := tcp.NewSender(d.Senders[0], 1, d.Receivers[0].ID, 0, probe)
	tcp.NewReceiver(d.Receivers[0], 1, d.Senders[0].ID)
	s.Start()
	eng.RunUntil(500 * netsim.Millisecond)
	rtt := float64(probe.srtt) / 1e6
	if rtt < 9.5 || rtt > 12 {
		t.Errorf("dumbbell SRTT = %.2f ms, want ≈ 10", rtt)
	}
}

func TestDumbbellUDPBackgroundShares(t *testing.T) {
	run := func(withUDP bool) float64 {
		eng := netsim.NewEngine()
		d := BuildDumbbell(eng, TestbedOpts(1))
		if withUDP {
			u := tcp.NewUDPSource(d.UDPHost, 99, d.Receivers[0].ID, 100e6)
			u.Start()
			defer u.Stop()
		}
		var got int64
		r := tcp.NewReceiver(d.Receivers[0], 1, d.Senders[0].ID)
		r.OnDeliver = func(n int, now netsim.Time) { got += int64(n) }
		s := tcp.NewSender(d.Senders[0], 1, d.Receivers[0].ID, 0, fixedRate(950e6))
		s.Start()
		eng.RunUntil(netsim.Second)
		if d.QueueBytes() < 0 {
			t.Error("queue accessor broken")
		}
		return float64(got*8) / 1e9
	}
	clean := run(false)
	shared := run(true)
	if shared >= clean-0.02 {
		t.Errorf("UDP background must cost the TCP flow goodput: clean %.3f vs shared %.3f", clean, shared)
	}
}

func TestDumbbellAttachCPUs(t *testing.T) {
	eng := netsim.NewEngine()
	d := BuildDumbbell(eng, TestbedOpts(2))
	d.ProvisionCPUs(4, ksim.DefaultCosts())
	if d.Senders[0].CPU == nil || d.UDPHost.CPU == nil {
		t.Error("CPUs not attached")
	}
}

// fixedRate is a controller pinned at bps with an effectively unlimited
// window.
type fixedRate int64

func (fixedRate) Start(netsim.Time)   {}
func (fixedRate) OnAck(tcp.AckInfo)   {}
func (fixedRate) OnLoss(tcp.LossInfo) {}
func (f fixedRate) PacingRate() int64 { return int64(f) }
func (fixedRate) CwndBytes() int      { return 1 << 30 }

// srttProbe is a fixed-rate controller that keeps the sender's smoothed RTT
// from the last ACK it saw.
type srttProbe struct {
	fixedRate
	srtt netsim.Time
}

func (p *srttProbe) OnAck(a tcp.AckInfo) { p.srtt = a.SRTT }
