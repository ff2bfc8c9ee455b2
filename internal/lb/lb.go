// Package lb implements NN-driven load balancing (paper §5.3): a per-flow
// MLP path selector over the spine–leaf fabric with XPath-style explicit
// path control, the per-path congestion monitor feeding it, ECMP as the
// baseline. Where the selector runs — a kernel snapshot or a userspace
// service behind a char device, the overhead gap Figure 17 measures — is
// rig's KernelDecider and UserDecider, with Argmax as the decision.
package lb

import (
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// InputDim returns the MLP input width for the given path count: per path an
// ECN-mark fraction and a normalized RTT, plus the flow's normalized size.
func InputDim(paths int) int { return 2*paths + 1 }

// NewMLP returns the paper's load-balancing model: 2 hidden layers × 12
// neurons with ReLU, one output score per path (argmax selects).
func NewMLP(paths int, seed int64) *nn.Network {
	net := nn.New([]int{InputDim(paths), 12, 12, paths},
		[]nn.Activation{nn.ReLU, nn.ReLU, nn.Linear}, seed)
	for _, l := range net.Layers[:2] {
		for i := range l.B {
			l.B[i] = 0.1 // keep narrow ReLU layers alive at init
		}
	}
	return net
}

// RTTNorm normalizes an RTT to the feature range (50 µs ≈ 1.0 on the
// data-center fabric).
func RTTNorm(rtt netsim.Time) float64 { return float64(rtt) / float64(50*netsim.Microsecond) }

// PathMonitor tracks per-path congestion as EWMAs of ECN-mark fractions and
// RTT samples — the congestion signals the paper's path selection module
// collects (ECN bytes, smoothed RTT).
type PathMonitor struct {
	ecn []float64
	rtt []float64
	g   float64 // EWMA gain
	obs []int64
}

// NewPathMonitor returns a monitor for the given path count.
func NewPathMonitor(paths int) *PathMonitor {
	return &PathMonitor{
		ecn: make([]float64, paths),
		rtt: make([]float64, paths),
		g:   0.2,
		obs: make([]int64, paths),
	}
}

// Observe folds one flow-feedback sample for a path into the EWMAs.
func (m *PathMonitor) Observe(path int, ecnFrac float64, rtt netsim.Time) {
	if path < 0 || path >= len(m.ecn) {
		return
	}
	m.obs[path]++
	if m.obs[path] == 1 {
		m.ecn[path] = ecnFrac
		m.rtt[path] = RTTNorm(rtt)
		return
	}
	m.ecn[path] = (1-m.g)*m.ecn[path] + m.g*ecnFrac
	m.rtt[path] = (1-m.g)*m.rtt[path] + m.g*RTTNorm(rtt)
}

// Features assembles the selector input for a flow of the given size.
func (m *PathMonitor) Features(sizeNorm float64) []float64 {
	out := make([]float64, 0, InputDim(len(m.ecn)))
	out = append(out, m.ecn...)
	out = append(out, m.rtt...)
	out = append(out, sizeNorm)
	return out
}

// FlowFeedback wraps a flow's DCTCP and accumulates its ECN echo fraction
// and average RTT — the per-flow signals a PathMonitor folds in.
type FlowFeedback struct {
	*cc.DCTCP
	acks, eces int
	rttSum     netsim.Time
}

// NewFlowFeedback returns a DCTCP controller that records its feedback.
func NewFlowFeedback() *FlowFeedback { return &FlowFeedback{DCTCP: cc.NewDCTCP()} }

// OnAck records the ACK's ECN echo and RTT, then runs DCTCP.
func (f *FlowFeedback) OnAck(a tcp.AckInfo) {
	f.acks++
	if a.ECE {
		f.eces++
	}
	f.rttSum += a.RTT
	f.DCTCP.OnAck(a)
}

// Stats returns the flow's ECN echo fraction and average RTT (0, 0 before
// its first ACK).
func (f *FlowFeedback) Stats() (ecnFrac float64, avgRTT netsim.Time) {
	if f.acks == 0 {
		return 0, 0
	}
	return float64(f.eces) / float64(f.acks), f.rttSum / netsim.Time(f.acks)
}

// BestPath is the supervision teacher: the least congested path by a
// weighted score of marks and latency. Ties resolve to the lowest index.
func BestPath(features []float64, paths int) int {
	best, bestScore := 0, 1e18
	for p := 0; p < paths; p++ {
		score := 2*features[p] + features[paths+p]
		if score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// Sample is one labeled training example: monitor features plus the path a
// congestion oracle would pick.
type Sample struct {
	Features []float64
	Best     int
}

// SampleRegime draws a sample in which congestion shows up as ECN marks
// (shallow marking thresholds) while the RTT stays flat. The label comes
// from the latent congestion, not from the proxy, so a model trained here is
// blind where congestion shows as RTT inflation instead (lb's regime-shift
// test draws that regime) — the workload dynamic behind the N-O-A comparison
// of Figure 17.
func SampleRegime(r *rand.Rand, paths int) Sample {
	f := make([]float64, InputDim(paths))
	latent := make([]float64, paths)
	for p := 0; p < paths; p++ {
		if r.Float64() < 0.5 {
			latent[p] = 0.2 + 0.8*r.Float64() // congested
		} else {
			latent[p] = 0.05 * r.Float64()
		}
		f[p] = latent[p]*0.8 + absn(r)*0.02
		f[paths+p] = 0.5 + absn(r)*0.05
	}
	f[2*paths] = r.Float64()
	best, bestC := 0, latent[0]
	for p := 1; p < paths; p++ {
		if latent[p] < bestC {
			best, bestC = p, latent[p]
		}
	}
	return Sample{Features: f, Best: best}
}

func absn(r *rand.Rand) float64 {
	x := r.NormFloat64()
	if x < 0 {
		return -x
	}
	return x
}

// Train fits the MLP to imitate the congestion oracle over SampleRegime's
// samples (one-hot regression; Adam, learning rate 0.01) and returns the
// final loss.
func Train(net *nn.Network, paths, iters int, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return nn.Imitate(net, 1e-2, iters, func(int) ([]float64, []float64) {
		s := SampleRegime(r, paths)
		t := make([]float64, paths)
		t[s.Best] = 1
		return s.Features, t
	})
}

// Argmax returns the index of the largest value (lowest index on ties).
func Argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ECMPSelector hashes each new flow onto a path — the baseline. It carries
// its own counter so experiments can draw per-flow IDs through it.
type ECMPSelector struct {
	Paths int
	next  uint64
}

// Path returns the next flow's path.
func (e *ECMPSelector) Path() int {
	e.next++
	x := e.next * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int(x % uint64(e.Paths))
}
