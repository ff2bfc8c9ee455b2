package cc

import (
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// AlphaController is the absolute-rate variant of the monitor-interval
// controller: the NN's output is α ∈ [0, 1], the fraction of line rate to
// pace at — exactly the CC example the paper uses to motivate its scale-up
// quantization layer (§3.1: "its output is the portion α of the line rate as
// target sending rate"). Because α is absolute, a model tuned for one
// traffic pattern misbehaves under another, which is what the online
// adaptation experiments (Figures 5 and 12) exercise.
type AlphaController struct {
	monitor

	LineRate int64

	curAlpha float64
}

// minAlpha is the floor decide clips α to.
const minAlpha = 0.01

// NewAlphaController returns a controller pacing at initialAlpha of
// lineRate until the first decision.
func NewAlphaController(eng *netsim.Engine, backend Backend, lineRate int64, initialAlpha float64) *AlphaController {
	m := &AlphaController{LineRate: lineRate, curAlpha: initialAlpha}
	m.monitor = newMonitor(eng, backend, m, m.alphaRate())
	return m
}

// Alpha returns the current line-rate fraction.
func (m *AlphaController) Alpha() float64 { return m.curAlpha }

// decide is the absolute law: the output is α, and OnState sees it clipped.
func (m *AlphaController) decide(alpha float64) (int64, float64) {
	m.curAlpha = clip(alpha, minAlpha, 1)
	return m.alphaRate(), m.curAlpha
}

// alphaRate is α of the line rate, floored at 1 Mbps.
func (m *AlphaController) alphaRate() int64 {
	r := int64(m.curAlpha * float64(m.LineRate))
	if r < 1_000_000 {
		r = 1_000_000
	}
	return r
}

// NewAuroraAlphaNet returns the Aurora architecture with a sigmoid output
// head producing α ∈ (0, 1).
func NewAuroraAlphaNet(seed int64) *nn.Network {
	return nn.New([]int{StateDim, 32, 16, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Sigmoid}, seed)
}

// NewMOCCAlphaNet returns the MOCC architecture with a sigmoid output head.
func NewMOCCAlphaNet(seed int64) *nn.Network {
	return nn.New([]int{StateDim, 64, 32, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Sigmoid}, seed)
}

// PretrainAlpha fits net to output the constant fraction alpha across the
// training environment's state distribution — the "NN trained for the
// original pattern" the adaptation experiments start from. Returns the
// final loss.
func PretrainAlpha(net *nn.Network, alpha float64, iters int, seed int64) float64 {
	r := newRand(seed)
	opt := nn.NewAdam(2e-3)
	const batch = 64
	x := make([][]float64, batch)
	y := make([][]float64, batch)
	var loss float64
	for it := 0; it < iters; it++ {
		for i := 0; i < batch; i++ {
			if i%2 == 0 {
				// Calm steady-state inputs: the states the controller
				// actually sees at equilibrium on its training pattern.
				x[i] = CalmState(r)
			} else {
				x[i] = RandomState(r)
			}
			y[i] = []float64{alpha}
		}
		loss = nn.TrainBatch(net, opt, x, y, 5)
	}
	return loss
}

// CalmState samples a near-equilibrium MI state: tiny latency gradients and
// ratios, negligible send-ratio distress.
func CalmState(r *rand.Rand) []float64 {
	s := make([]float64, StateDim)
	for t := 0; t < HistoryLen; t++ {
		s[t*FeatureDim+0] = r.NormFloat64() * 0.01
		s[t*FeatureDim+1] = absFloat(r.NormFloat64()) * 0.02
		s[t*FeatureDim+2] = absFloat(r.NormFloat64()) * 0.03
	}
	return s
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

var _ tcp.CongestionControl = (*AlphaController)(nil)
