package cc

import (
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// NewAuroraNet returns the Aurora architecture from the paper: two hidden
// fully connected layers with 32 and 16 neurons, tanh output bounding the
// action to [−1, 1].
func NewAuroraNet(seed int64) *nn.Network {
	return nn.New([]int{StateDim, 32, 16, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}, seed)
}

// NewMOCCNet returns the MOCC architecture: two hidden layers with 64 and 32
// neurons (paper §5.1).
func NewMOCCNet(seed int64) *nn.Network {
	return nn.New([]int{StateDim, 64, 32, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}, seed)
}

// RandomState samples a plausible MI state vector: mostly calm intervals
// with occasional congestion excursions. Used for pre-training, quantization
// accuracy measurement (Figure 7) and fidelity evaluation.
func RandomState(r *rand.Rand) []float64 {
	s := make([]float64, StateDim)
	for t := 0; t < HistoryLen; t++ {
		latGrad := clip(r.NormFloat64()*0.2, -1, 1)
		latRatio := clip(absf(r.NormFloat64())*0.6, 0, 5)
		sendRatio := 0.0
		if r.Float64() < 0.25 { // occasional under-delivery
			sendRatio = clip(absf(r.NormFloat64())*1.2, 0, 5)
		}
		s[t*FeatureDim+0] = latGrad
		s[t*FeatureDim+1] = latRatio
		s[t*FeatureDim+2] = sendRatio
	}
	return s
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Pretrain fits net to imitate the TeacherPolicy over randomly sampled MI
// states — the "userspace-designed and trained NN" that LiteFlow receives as
// input (paper Figure 6). It returns the final batch loss. Deterministic for
// a given seed.
func Pretrain(net *nn.Network, iters int, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	teacher := TeacherPolicy{}
	return nn.Imitate(net, 2e-3, iters, func(int) ([]float64, []float64) {
		s := RandomState(r)
		return s, []float64{teacher.Act(s)}
	})
}
