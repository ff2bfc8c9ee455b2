package cc

import (
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// BBR is a compact model of BBRv1 (Cardwell et al.): rate-based control from
// windowed estimates of bottleneck bandwidth and propagation RTT, with the
// startup/drain/probe_bw gain schedule. It deliberately omits PROBE_RTT and
// long-term policing — the evaluation only needs BBR's steady behaviour as
// the kernel baseline.
type BBR struct {
	state    int // 0 startup, 1 drain, 2 probe_bw
	btlBw    maxFilter
	rtProp   netsim.Time
	rtPropAt netsim.Time

	pacingGain float64
	cycleIdx   int
	cycleAt    netsim.Time

	fullBwCount int
	lastFullBw  int64
	roundEnd    netsim.Time // next full-bandwidth evaluation (once per RTT)

	srtt netsim.Time
	rate int64
}

var probeBwGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const (
	bbrStartupGain = 2.885
	bbrDrainGain   = 1 / 2.885
	bbrInitialRate = 10_000_000 // 10 Mbps until the first bandwidth sample
)

// NewBBR returns a BBR controller.
func NewBBR() *BBR {
	return &BBR{pacingGain: bbrStartupGain, rate: bbrInitialRate, rtProp: 1 << 62}
}

// maxFilter is a windowed max over (time, value) samples added in time
// order: the max of the samples no older than the window before the latest.
// It keeps a monotonic deque in a power-of-two ring — a sample that arrives
// with a value at least as large makes every older, smaller-or-equal one
// irrelevant (it would expire first and never be the max meanwhile), so add
// drops those from the back, expires from the front, and the front is the
// max. Both are O(1) amortised; nothing scans a window of per-ACK samples.
type maxFilter struct {
	window  netsim.Time
	ring    []bwSample
	head, n int
}

type bwSample struct {
	at netsim.Time
	v  int64
}

func (f *maxFilter) add(at netsim.Time, v int64) {
	mask := len(f.ring) - 1
	for f.n > 0 && f.ring[(f.head+f.n-1)&mask].v <= v {
		f.n--
	}
	if f.n == len(f.ring) {
		grown := make([]bwSample, max(8, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.ring[(f.head+i)&mask]
		}
		f.ring, f.head, mask = grown, 0, len(grown)-1
	}
	f.ring[(f.head+f.n)&mask] = bwSample{at, v}
	f.n++
	for cutoff := at - f.window; f.n > 0 && f.ring[f.head].at < cutoff; f.n-- {
		f.head = (f.head + 1) & mask
	}
}

// max returns the window's largest value, 0 when it is empty or holds only
// negative values.
func (f *maxFilter) max() int64 {
	if f.n == 0 || f.ring[f.head].v < 0 {
		return 0
	}
	return f.ring[f.head].v
}

// Start implements tcp.CongestionControl.
func (b *BBR) Start(now netsim.Time) {
	b.btlBw.window = 100 * netsim.Millisecond * 10
	b.cycleAt = now
}

// OnAck implements tcp.CongestionControl.
func (b *BBR) OnAck(a tcp.AckInfo) {
	b.srtt = a.SRTT
	if a.RTT > 0 && (a.RTT < b.rtProp || a.Now-b.rtPropAt > 10*netsim.Second) {
		b.rtProp = a.RTT
		b.rtPropAt = a.Now
	}
	if a.DeliveryRate > 0 {
		b.btlBw.add(a.Now, a.DeliveryRate)
	}
	bw := b.btlBw.max()

	switch b.state {
	case 0: // startup: exit when bandwidth stops growing for 3 round trips
		if a.Now >= b.roundEnd { // evaluate once per RTT, not per ACK
			b.roundEnd = a.Now + b.srttOr(10*netsim.Millisecond)
			if bw > b.lastFullBw*5/4 {
				b.lastFullBw = bw
				b.fullBwCount = 0
			} else if bw > 0 {
				b.fullBwCount++
				if b.fullBwCount >= 3 {
					b.state = 1
					b.pacingGain = bbrDrainGain
					b.cycleAt = a.Now
				}
			}
		}
	case 1: // drain: one RTT at the drain gain, then cycle
		if a.Now-b.cycleAt > b.srttOr(10*netsim.Millisecond) {
			b.state = 2
			b.cycleIdx = 0
			b.pacingGain = probeBwGains[0]
			b.cycleAt = a.Now
		}
	case 2: // probe_bw: advance the gain cycle once per RTT
		if a.Now-b.cycleAt > b.srttOr(10*netsim.Millisecond) {
			b.cycleIdx = (b.cycleIdx + 1) % len(probeBwGains)
			b.pacingGain = probeBwGains[b.cycleIdx]
			b.cycleAt = a.Now
		}
	}

	if bw > 0 {
		b.rate = int64(b.pacingGain * float64(bw))
	} else {
		b.rate = int64(b.pacingGain * bbrInitialRate)
	}
}

func (b *BBR) srttOr(d netsim.Time) netsim.Time {
	if b.srtt > 0 {
		return b.srtt
	}
	return d
}

// OnLoss implements tcp.CongestionControl. BBRv1 is loss-agnostic except for
// timeouts, which restart the bandwidth search.
func (b *BBR) OnLoss(l tcp.LossInfo) {
	if l.Timeout {
		b.state = 0
		b.pacingGain = bbrStartupGain
		b.lastFullBw = 0
		b.fullBwCount = 0
	}
}

// PacingRate implements tcp.CongestionControl.
func (b *BBR) PacingRate() int64 { return b.rate }

// CwndBytes implements tcp.CongestionControl: 2 × BDP.
func (b *BBR) CwndBytes() int {
	rtt := b.rtProp
	if rtt >= 1<<62 {
		rtt = b.srttOr(10 * netsim.Millisecond)
	}
	bdp := float64(b.btlBw.max()) / 8 * float64(rtt) / 1e9
	w := int(2 * bdp)
	if w < 10*netsim.MSS {
		w = 10 * netsim.MSS
	}
	return w
}

var _ tcp.CongestionControl = (*BBR)(nil)
