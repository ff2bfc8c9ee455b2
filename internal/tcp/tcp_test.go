package tcp

import (
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

// pair builds two hosts joined by a symmetric pipe.
func pair(eng *netsim.Engine, rateBps int64, delay netsim.Time, bufBytes int) (*Host, *Host) {
	a := NewHost(eng, 1)
	b := NewHost(eng, 2)
	p := netsim.NewPipe(eng, a, b, rateBps, delay, bufBytes)
	a.SetEgress(p.AtoB)
	b.SetEgress(p.BtoA)
	return a, b
}

// recordingCC wraps FixedRate and records the signals it sees.
type recordingCC struct {
	FixedRate
	acks    int
	losses  int
	eces    int
	lastRTT netsim.Time
}

func (r *recordingCC) OnAck(a AckInfo) {
	r.acks++
	if a.ECE {
		r.eces++
	}
	if a.RTT > 0 {
		r.lastRTT = a.RTT
	}
}
func (r *recordingCC) OnLoss(l LossInfo) { r.losses++ }

func TestFlowCompletesWithSaneFCT(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, 5*netsim.Millisecond, 1<<20) // 100 Mbps, 10 ms RTT
	const size = 1 << 20                                        // 1 MiB
	cc := NewFixedRate(80_000_000)
	var fct netsim.Time
	s := NewSender(a, 1, b.ID, size, cc)
	s.OnComplete = func(d netsim.Time) { fct = d }
	NewReceiver(b, 1, a.ID)
	s.Start()
	eng.RunUntil(10 * netsim.Second)
	if !s.Completed() {
		t.Fatalf("flow did not complete; acked=%d", s.AckedBytes())
	}
	// Serialization at 80 Mbps ≈ 105 ms + 10 ms RTT; allow generous slack.
	if fct < 100*netsim.Millisecond || fct > 300*netsim.Millisecond {
		t.Errorf("FCT = %v ms, want ≈ 115 ms", float64(fct)/1e6)
	}
	if s.AckedBytes() != size {
		t.Errorf("acked %d bytes, want %d", s.AckedBytes(), size)
	}
}

func TestUnboundedFlowTracksPacingRate(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 1_000_000_000, netsim.Millisecond, 1<<20)
	cc := NewFixedRate(200_000_000)
	s := NewSender(a, 1, b.ID, 0, cc)
	r := NewReceiver(b, 1, a.ID)
	var delivered int64
	r.OnDeliver = func(n int, now netsim.Time) { delivered += int64(n) }
	s.Start()
	eng.RunUntil(netsim.Second)
	gbps := float64(delivered*8) / 1e9
	if gbps < 0.17 || gbps > 0.21 {
		t.Errorf("goodput = %.3f Gbps, want ≈ 0.19 (pacing 0.2 minus headers)", gbps)
	}
}

func TestSRTTApproximatesPathRTT(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 1_000_000_000, 5*netsim.Millisecond, 1<<20)
	cc := NewFixedRate(50_000_000)
	s := NewSender(a, 1, b.ID, 0, cc)
	NewReceiver(b, 1, a.ID)
	s.Start()
	eng.RunUntil(500 * netsim.Millisecond)
	if s.SRTT() < 10*netsim.Millisecond || s.SRTT() > 12*netsim.Millisecond {
		t.Errorf("SRTT = %v ms, want ≈ 10", float64(s.SRTT())/1e6)
	}
}

func TestLossRecoveryUnderOverload(t *testing.T) {
	eng := netsim.NewEngine()
	// 10 Mbps bottleneck, small 30 KB buffer, sender blasting at 50 Mbps.
	a, b := pair(eng, 10_000_000, 2*netsim.Millisecond, 30_000)
	cc := &recordingCC{FixedRate: FixedRate{Bps: 50_000_000, Wnd: 1 << 30}}
	const size = 500_000
	s := NewSender(a, 1, b.ID, size, cc)
	NewReceiver(b, 1, a.ID)
	s.Start()
	eng.RunUntil(30 * netsim.Second)
	if !s.Completed() {
		t.Fatalf("flow must complete despite loss; acked=%d/%d rtx=%d", s.AckedBytes(), int64(size), s.Retransmits)
	}
	if s.Retransmits == 0 {
		t.Error("overdriven bottleneck must force retransmissions")
	}
	if cc.losses == 0 {
		t.Error("congestion controller must see loss events")
	}
}

// TestOutstandingStaysOrderedAcrossRetransmits pins what detectLoss's early
// exit relies on: the live region of s.outstanding is strictly increasing in
// seq at every ACK, because a retransmission reuses its segment's slot and
// only new data is appended.
func TestOutstandingStaysOrderedAcrossRetransmits(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 10_000_000, 2*netsim.Millisecond, 30_000)
	cc := &recordingCC{FixedRate: FixedRate{Bps: 50_000_000, Wnd: 1 << 30}}
	s := NewSender(a, 1, b.ID, 500_000, cc)
	NewReceiver(b, 1, a.ID)
	retxInPlace := 0
	s.OnAcked = func(int64, netsim.Time) {
		live := s.outstanding[s.outHead:]
		for i := 1; i < len(live); i++ {
			if live[i].seq <= live[i-1].seq {
				t.Fatalf("outstanding out of order at %d: seq %d after %d", i, live[i].seq, live[i-1].seq)
			}
			if live[i-1].rtx > 0 {
				retxInPlace++
			}
		}
	}
	s.Start()
	eng.RunUntil(30 * netsim.Second)
	if !s.Completed() || s.Retransmits == 0 {
		t.Fatalf("need a completed flow with retransmissions; completed=%v rtx=%d", s.Completed(), s.Retransmits)
	}
	if retxInPlace == 0 {
		t.Error("no retransmitted segment was seen ahead of newer ones: the case under test never arose")
	}
}

func TestReceiverDeduplicates(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 1_000_000_000, netsim.Millisecond, 1<<20)
	r := NewReceiver(b, 7, a.ID)
	var delivered int64
	r.OnDeliver = func(n int, now netsim.Time) { delivered += int64(n) }
	// Deliver the same segment twice, bypassing a sender. The duplicate is a
	// distinct packet object, as a retransmission would be (the host recycles
	// every packet it consumes, so re-sending the same pointer is invalid).
	seg := netsim.Packet{Flow: 7, Src: a.ID, Dst: b.ID, Seq: 0, Size: netsim.HeaderBytes + 1000}
	pkt, dup := seg, seg
	b.HandlePacket(&pkt)
	b.HandlePacket(&dup)
	eng.Run()
	if delivered != 1000 {
		t.Errorf("delivered = %d, want 1000 (dup ignored)", delivered)
	}
	if r.UniqueBytes() != 1000 {
		t.Errorf("UniqueBytes = %d, want 1000", r.UniqueBytes())
	}
	if r.DupAcks != 1 {
		t.Errorf("DupAcks = %d, want 1", r.DupAcks)
	}
}

func TestRTORecoversFromBlackhole(t *testing.T) {
	eng := netsim.NewEngine()
	a := NewHost(eng, 1)
	sink := &netsim.Sink{} // data vanishes: no ACKs ever
	a.SetEgress(netsim.NewLink(eng, sink, 1e9, netsim.Millisecond, nil))
	cc := &recordingCC{FixedRate: FixedRate{Bps: 10_000_000, Wnd: 3 * netsim.MSS}}
	s := NewSender(a, 1, 2, 100_000, cc)
	s.Start()
	eng.RunUntil(500 * netsim.Millisecond)
	if s.Timeouts == 0 {
		t.Error("blackholed flow must fire RTO")
	}
	if s.Retransmits == 0 {
		t.Error("RTO must queue retransmissions")
	}
	found := false
	for _, l := range []bool{cc.losses > 0} {
		found = found || l
	}
	if !found {
		t.Error("controller must see timeout losses")
	}
}

func TestECNEchoReachesController(t *testing.T) {
	eng := netsim.NewEngine()
	a := NewHost(eng, 1)
	b := NewHost(eng, 2)
	// Forward path marks ECN aggressively (K = 10 KB).
	fwd := netsim.NewLink(eng, b, 50_000_000, netsim.Millisecond, netsim.NewECNQueue(1<<20, 10_000))
	rev := netsim.NewLink(eng, a, 50_000_000, netsim.Millisecond, netsim.NewDropTail(1<<20))
	a.SetEgress(fwd)
	b.SetEgress(rev)
	cc := &recordingCC{FixedRate: FixedRate{Bps: 100_000_000, Wnd: 1 << 30}} // overdrive to build queue
	s := NewSender(a, 1, b.ID, 0, cc)
	NewReceiver(b, 1, a.ID)
	s.Start()
	eng.RunUntil(200 * netsim.Millisecond)
	if cc.eces == 0 {
		t.Error("controller must see ECN echoes from a marking queue")
	}
}

func TestHostCPUSaturationDegradesGoodput(t *testing.T) {
	run := func(withCPU bool, crossLoad bool) float64 {
		eng := netsim.NewEngine()
		a, b := pair(eng, 2_000_000_000, netsim.Millisecond, 1<<22)
		costs := ksim.DefaultCosts()
		if withCPU {
			a.AttachCPU(ksim.NewHostCPU(eng, 1), costs)
			b.AttachCPU(ksim.NewHostCPU(eng, 1), costs)
		}
		if crossLoad {
			// A hostile busy-loop: burn the sender CPU with softirq work,
			// emulating frequent cross-space switching.
			var burn func()
			burn = func() {
				a.CPU.Charge(ksim.SoftIRQ, 800*netsim.Microsecond)
				eng.After(netsim.Millisecond, burn)
			}
			eng.After(0, burn)
		}
		cc := NewFixedRate(1_000_000_000)
		s := NewSender(a, 1, b.ID, 0, cc)
		r := NewReceiver(b, 1, a.ID)
		var delivered int64
		r.OnDeliver = func(n int, now netsim.Time) { delivered += int64(n) }
		s.Start()
		eng.RunUntil(netsim.Second)
		return float64(delivered * 8)
	}
	unconstrained := run(false, false)
	cpuOnly := run(true, false)
	loaded := run(true, true)
	if cpuOnly > unconstrained {
		t.Errorf("CPU model must not exceed unconstrained: %v > %v", cpuOnly, unconstrained)
	}
	if loaded > cpuOnly*0.7 {
		t.Errorf("softirq load must markedly degrade goodput: loaded=%.0f vs idle=%.0f", loaded, cpuOnly)
	}
}

func TestUDPSourceRate(t *testing.T) {
	eng := netsim.NewEngine()
	a := NewHost(eng, 1)
	sink := &netsim.Sink{}
	a.SetEgress(netsim.NewLink(eng, sink, 1e9, 0, nil))
	u := NewUDPSource(a, 99, 2, 100_000_000) // 0.1 Gbps
	u.Start()
	eng.RunUntil(netsim.Second)
	u.Stop()
	gbps := float64(sink.Bytes*8) / 1e9
	if gbps < 0.095 || gbps > 0.105 {
		t.Errorf("UDP rate = %.4f Gbps, want ≈ 0.1", gbps)
	}
}

func TestUDPSourceSetRateAndPause(t *testing.T) {
	eng := netsim.NewEngine()
	a := NewHost(eng, 1)
	sink := &netsim.Sink{}
	a.SetEgress(netsim.NewLink(eng, sink, 1e9, 0, nil))
	u := NewUDPSource(a, 99, 2, 0) // paused
	u.Start()
	eng.RunUntil(100 * netsim.Millisecond)
	if sink.Packets != 0 {
		t.Error("zero-rate source must not transmit")
	}
	u.SetRate(50_000_000)
	eng.RunUntil(1100 * netsim.Millisecond)
	if sink.Packets == 0 {
		t.Error("source must resume after SetRate")
	}
}

func TestFINCallbackFires(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 1_000_000_000, netsim.Millisecond, 1<<20)
	cc := NewFixedRate(100_000_000)
	s := NewSender(a, 1, b.ID, 10_000, cc)
	r := NewReceiver(b, 1, a.ID)
	var finFlow netsim.FlowID
	r.OnFIN = func(f netsim.FlowID) { finFlow = f }
	s.Start()
	eng.RunUntil(netsim.Second)
	if finFlow != 1 {
		t.Errorf("OnFIN flow = %d, want 1", finFlow)
	}
}

func TestTransmitWithoutEgressPanics(t *testing.T) {
	eng := netsim.NewEngine()
	h := NewHost(eng, 1)
	defer func() {
		if recover() == nil {
			t.Error("Transmit without egress must panic")
		}
	}()
	h.Transmit(&netsim.Packet{})
}

func TestMultipleFlowsShareBottleneckFairlyEnough(t *testing.T) {
	eng := netsim.NewEngine()
	a, b := pair(eng, 100_000_000, netsim.Millisecond, 1<<20)
	var got [2]int64
	for i := 0; i < 2; i++ {
		i := i
		cc := NewFixedRate(45_000_000)
		s := NewSender(a, netsim.FlowID(i+1), b.ID, 0, cc)
		r := NewReceiver(b, netsim.FlowID(i+1), a.ID)
		r.OnDeliver = func(n int, now netsim.Time) { got[i] += int64(n) }
		s.Start()
	}
	eng.RunUntil(netsim.Second)
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("both flows must progress: %v", got)
	}
	ratio := float64(got[0]) / float64(got[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("equal-rate flows should share ≈ equally, ratio = %.2f", ratio)
	}
}

func BenchmarkFlowThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := netsim.NewEngine()
		a, h := pair(eng, 1_000_000_000, netsim.Millisecond, 1<<20)
		cc := NewFixedRate(500_000_000)
		s := NewSender(a, 1, h.ID, 0, cc)
		NewReceiver(h, 1, a.ID)
		s.Start()
		eng.RunUntil(100 * netsim.Millisecond)
	}
}
