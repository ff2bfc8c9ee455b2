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
	// bandwidth is the bottleneck capacity in abstract rate units.
	bandwidth float64
	// baseRTT is the propagation RTT in seconds.
	baseRTT float64
	// bufferSec is the buffer depth in seconds of queueing at capacity.
	bufferSec float64
	// Steps is the episode length in monitor intervals.
	Steps int
	// delta is the per-step multiplicative rate step (matches the
	// controller's δ).
	delta float64
	// Reward shapes the per-step reward.
	Reward Reward
	// RandomizeBandwidth, when set, draws a fresh bandwidth uniformly from
	// [bandwidth/2, 2·bandwidth] each episode, the domain-randomization
	// trick Aurora trains with.
	RandomizeBandwidth bool

	rng *rand.Rand

	bw      float64
	rate    float64
	queue   float64 // seconds of queueing delay
	prevLat float64
	step    int
	history [StateDim]float64
}

// NewLinkEnv returns an Aurora-style training link: unit bandwidth, 10 ms
// RTT, half-BDP buffer, 400-step episodes.
func NewLinkEnv(reward Reward, seed int64) *LinkEnv {
	return &LinkEnv{
		bandwidth: 1.0,
		baseRTT:   0.01,
		bufferSec: 0.005,
		Steps:     400,
		delta:     0.05,
		Reward:    reward,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Reset implements Env.
func (e *LinkEnv) Reset() []float64 {
	e.bw = e.bandwidth
	if e.RandomizeBandwidth {
		e.bw = e.bandwidth * (0.5 + 1.5*e.rng.Float64())
	}
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

	reward := e.Reward.Score(throughput, latency, loss)

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
