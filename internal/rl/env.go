package rl

import (
	"math/rand"
)

// Feature layout shared with the cc monitor-interval controller: 10 triples
// of (latency gradient, latency ratio − 1, send ratio − 1).
const (
	featureDim = 3
	historyLen = 10
	// StateDim is the observation width of LinkEnv, matching cc.StateDim.
	StateDim = featureDim * historyLen
)

// LinkEnv is the analytic single-bottleneck link model Aurora's GYM training
// uses: one step is one monitor interval; the action adjusts the sending
// rate multiplicatively; queueing, loss and latency follow fluid dynamics.
// It is deliberately far cheaper than the packet-level simulator so episodes
// run fast enough for online adaptation inside experiments.
type LinkEnv struct {
	// bw is the bottleneck capacity in abstract rate units.
	bw float64
	// baseRTT is the propagation RTT in seconds.
	baseRTT float64
	// bufferSec is the buffer depth in seconds of queueing at capacity.
	bufferSec float64
	// Steps is the episode length in monitor intervals.
	Steps int
	// delta is the per-step multiplicative rate step (matches the
	// controller's δ).
	delta float64

	rng *rand.Rand

	rate    float64
	queue   float64 // seconds of queueing delay
	prevLat float64
	step    int
	history [StateDim]float64
}

// NewLinkEnv returns an Aurora-style training link: unit bandwidth, 10 ms
// RTT, half-BDP buffer, 400-step episodes, rewarded by auroraReward.
func NewLinkEnv(seed int64) *LinkEnv {
	return &LinkEnv{
		bw:        1.0,
		baseRTT:   0.01,
		bufferSec: 0.005,
		Steps:     400,
		delta:     0.05,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Reset implements Env.
func (e *LinkEnv) Reset() []float64 {
	e.rate = e.bw * (0.3 + 0.4*e.rng.Float64())
	e.queue = 0
	e.prevLat = e.baseRTT
	e.step = 0
	e.history = [StateDim]float64{}
	return append([]float64(nil), e.history[:]...)
}

// Step implements Env.
func (e *LinkEnv) Step(action float64) ([]float64, float64, bool) {
	// Apply the Aurora rate update rule.
	if action >= 0 {
		e.rate *= 1 + e.delta*action
	} else {
		e.rate /= 1 + e.delta*(-action)
	}

	dt := e.baseRTT // one MI ≈ one RTT

	// Fluid queue update: excess arrival grows the queue; deficit drains it.
	excess := (e.rate - e.bw) / e.bw // in service-seconds per second
	e.queue += excess * dt
	loss := 0.0
	if e.queue > e.bufferSec {
		// Overflow: everything beyond the buffer is dropped this MI.
		dropped := e.queue - e.bufferSec
		loss = clip(dropped/(e.rate/e.bw*dt), 0, 1)
		e.queue = e.bufferSec
	}
	if e.queue < 0 {
		e.queue = 0
	}

	latency := e.baseRTT + e.queue
	delivered := e.rate * (1 - loss)
	if delivered > e.bw {
		delivered = e.bw
	}
	throughput := delivered / e.bw

	// Derive the controller-compatible features.
	latGrad := (latency - e.prevLat) / dt
	latRatio := latency/e.baseRTT - 1
	sendRatio := 0.0
	if delivered > 1e-9 {
		sendRatio = e.rate/delivered - 1
	}
	e.prevLat = latency

	copy(e.history[:], e.history[featureDim:])
	e.history[StateDim-3] = clip(latGrad*0.2, -1, 1)
	e.history[StateDim-2] = clip(latRatio, -1, 5)
	e.history[StateDim-1] = clip(sendRatio, -1, 5)

	reward := auroraReward(throughput, latency, loss)

	e.step++
	done := e.step >= e.Steps
	return append([]float64(nil), e.history[:]...), reward, done
}

// Utilization returns delivered/capacity for the current rate, used by
// tests to check converged behaviour.
func (e *LinkEnv) Utilization() float64 {
	u := e.rate / e.bw
	if u > 1 {
		u = 1
	}
	return u
}

var _ Env = (*LinkEnv)(nil)

// auroraReward is Aurora's linear reward: 10·throughput − 1000·latency −
// 2000·loss (throughput normalized to link capacity, latency in seconds,
// loss as a fraction), scaled to keep magnitudes comparable across
// environments.
func auroraReward(throughput, latency, loss float64) float64 {
	return 10*throughput - 20*latency - 30*loss
}
