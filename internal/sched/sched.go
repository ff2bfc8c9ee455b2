// Package sched implements NN-driven flow scheduling (paper §5.2): FLUX's
// FFNN flow-size predictor, its features and labels, and the priority tagger
// that maps predicted sizes to strict-priority bands (pFabric-style). Where
// the predictor runs — the LiteFlow kernel snapshot or a userspace service
// behind a char-device or netlink round trip (Figure 15) — is rig's
// KernelDecider and UserDecider, with Decode as the decision.
package sched

import (
	"math"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// NumFeatures is the FFNN input width: the flow metadata FLUX collects at
// flow start (normalized log burst size, inter-arrival gap, source load,
// destination load).
const NumFeatures = 4

// LogScale normalizes log10(bytes) into roughly [0, 1] for the regressor
// (10^7.5 ≈ 30 MB is the workload's tail).
const LogScale = 7.5

// NewFFNN returns FLUX's predictor architecture: 2 hidden layers × 5
// neurons, ReLU, linear output regressing normalized log flow size.
func NewFFNN(seed int64) *nn.Network {
	net := nn.New([]int{NumFeatures, 5, 5, 1},
		[]nn.Activation{nn.ReLU, nn.ReLU, nn.Linear}, seed)
	// Small positive biases keep the narrow ReLU layers alive at init;
	// with only 5 units per layer, zero biases strand most of them dead
	// on the all-positive feature ranges.
	for _, l := range net.Layers[:2] {
		for i := range l.B {
			l.B[i] = 0.1
		}
	}
	return net
}

// FeatureModel synthesizes predictable-but-noisy flow features: the
// information FLUX extracts from application context. Drift shifts the
// feature→size mapping, modelling workload changes that invalidate a frozen
// model (the N-O-A comparisons of Figure 16).
type FeatureModel struct {
	// noise is the feature noise stddev (prediction ceiling).
	noise float64
	// Drift offsets the informative feature; a tuned model learns it away,
	// a frozen snapshot cannot.
	Drift float64

	rng *rand.Rand
}

// NewFeatureModel returns a feature synthesizer with the given seed.
func NewFeatureModel(seed int64) *FeatureModel {
	return &FeatureModel{noise: 0.03, rng: rand.New(rand.NewSource(seed))}
}

// Features produces the metadata vector observed for a flow of the given
// size (bytes). The first dimension carries the learnable signal; the rest
// model context of limited value.
func (f *FeatureModel) Features(size int64) []float64 {
	sig := math.Log10(float64(size))/LogScale + f.Drift + f.rng.NormFloat64()*f.noise
	return []float64{
		sig,
		f.rng.Float64() * 0.5,         // inter-arrival gap (weakly informative)
		0.3 + f.rng.NormFloat64()*0.1, // source load
		0.3 + f.rng.NormFloat64()*0.1, // destination load
	}
}

// Target returns the regression target for a flow size.
func Target(size int64) float64 { return math.Log10(float64(size)) / LogScale }

// PredictedBytes inverts a model output back to bytes.
func PredictedBytes(out float64) float64 { return math.Pow(10, out*LogScale) }

// Train fits the FFNN on (features, size) pairs for the given epochs (Adam,
// learning rate 0.01) and returns the final loss. The adapter used by the
// online experiments calls this with freshly collected batches.
func Train(net *nn.Network, feats [][]float64, sizes []int64, epochs int) float64 {
	if len(feats) == 0 {
		return 0
	}
	y := make([][]float64, len(sizes))
	for i, s := range sizes {
		y[i] = []float64{Target(s)}
	}
	opt := nn.NewAdam(1e-2)
	var loss float64
	for e := 0; e < epochs; e++ {
		loss = nn.TrainBatch(net, opt, feats, y, 5)
	}
	return loss
}

// PrioThresholds are the flow-size boundaries (bytes) between the 8 strict
// priority bands, following the pFabric/PIAS convention: small flows get
// high priority (band 0).
var PrioThresholds = []float64{10e3, 30e3, 100e3, 300e3, 1e6, 3e6, 10e6}

// PrioOf maps a predicted flow size to a priority band.
func PrioOf(predictedBytes float64) int {
	for i, th := range PrioThresholds {
		if predictedBytes < th {
			return i
		}
	}
	return len(PrioThresholds)
}

// Decode is the scheduler's decision from a model output: the priority band
// of the predicted flow size.
func Decode(out []float64) int { return PrioOf(PredictedBytes(out[0])) }
