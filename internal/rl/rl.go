// Package rl implements the reinforcement-learning machinery behind Aurora
// and MOCC: a gym-style environment interface and a Gaussian-policy REINFORCE
// learner with a moving baseline (the policy-gradient family Aurora's
// PCC-RL training uses).
//
// The paper tunes its NNs in userspace with TensorFlow/GYM; this package is
// the stdlib equivalent used by the online-adaptation experiments (Figures
// 8 and 12) and by the Adapter implementations in package experiments.
package rl

import (
	"math"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// Env is a gym-like episodic environment with a continuous scalar action.
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action and returns the next observation, the reward,
	// and whether the episode ended.
	Step(action float64) (obs []float64, reward float64, done bool)
}

// REINFORCE is a Gaussian-policy Monte-Carlo policy-gradient learner: the
// network outputs the action mean; exploration noise is Gaussian with a
// decaying sigma; returns are discounted and baselined by their batch mean.
type REINFORCE struct {
	Net        *nn.Network
	Opt        nn.Optimizer
	gamma      float64 // discount
	Sigma      float64 // exploration stddev
	sigmaDecay float64
	minSigma   float64

	rng *rand.Rand
	out []float64
}

// NewREINFORCE returns a learner for net with standard hyperparameters.
func NewREINFORCE(net *nn.Network, lr float64, seed int64) *REINFORCE {
	return &REINFORCE{
		Net:        net,
		Opt:        nn.NewAdam(lr),
		gamma:      0.95,
		Sigma:      0.4,
		sigmaDecay: 0.995,
		minSigma:   0.05,
		rng:        rand.New(rand.NewSource(seed)),
		out:        make([]float64, 1),
	}
}

// Mean returns the policy mean action for obs (deterministic inference).
func (r *REINFORCE) Mean(obs []float64) float64 {
	r.Net.Forward(obs, r.out)
	return clip(r.out[0], -1, 1)
}

// Sample draws an exploratory action for obs.
func (r *REINFORCE) Sample(obs []float64) float64 {
	return clip(r.Mean(obs)+r.rng.NormFloat64()*r.Sigma, -1, 1)
}

// step is one recorded transition.
type step struct {
	obs    []float64
	action float64
	reward float64
}

// RunBatch plays `episodes` episodes, then applies one policy-gradient
// update using a per-time-index baseline across the batch (removing the
// systematic within-episode return trend that makes single-trajectory
// REINFORCE diverge). It returns the mean undiscounted episode return.
func (r *REINFORCE) RunBatch(env Env, episodes, maxSteps int) float64 {
	if episodes < 1 {
		episodes = 1
	}
	trajs := make([][]step, 0, episodes)
	total := 0.0
	for e := 0; e < episodes; e++ {
		traj, ret := r.collect(env, maxSteps)
		trajs = append(trajs, traj)
		total += ret
	}
	r.update(trajs)
	r.decaySigma()
	return total / float64(episodes)
}

func (r *REINFORCE) collect(env Env, maxSteps int) ([]step, float64) {
	obs := env.Reset()
	var traj []step
	total := 0.0
	for t := 0; t < maxSteps; t++ {
		o := append([]float64(nil), obs...)
		a := r.Sample(o)
		next, reward, done := env.Step(a)
		traj = append(traj, step{obs: o, action: a, reward: reward})
		total += reward
		obs = next
		if done {
			break
		}
	}
	return traj, total
}

func (r *REINFORCE) decaySigma() {
	if r.Sigma > r.minSigma {
		r.Sigma *= r.sigmaDecay
	}
}

// update applies the REINFORCE gradient. For a Gaussian policy with fixed
// sigma, d log π / d mean = (a − mean)/σ²; the loss gradient wrt the network
// output is −Â·(a − mean)/σ². The baseline is the mean return at the same
// time index across trajectories (when several are available), which cancels
// the within-episode trend; advantages are then globally normalized.
func (r *REINFORCE) update(trajs [][]step) {
	maxLen, n := 0, 0
	for _, tr := range trajs {
		if len(tr) > maxLen {
			maxLen = len(tr)
		}
		n += len(tr)
	}
	if n == 0 {
		return
	}
	// Discounted returns per trajectory.
	returns := make([][]float64, len(trajs))
	for k, tr := range trajs {
		rs := make([]float64, len(tr))
		g := 0.0
		for i := len(tr) - 1; i >= 0; i-- {
			g = tr[i].reward + r.gamma*g
			rs[i] = g
		}
		returns[k] = rs
	}
	// Per-time-index baseline across trajectories. Indices covered by a
	// single trajectory fall back to the global mean return — otherwise a
	// lone sample would be its own baseline and carry zero advantage.
	var globalSum float64
	for k := range trajs {
		for _, g := range returns[k] {
			globalSum += g
		}
	}
	globalMean := globalSum / float64(n)
	baseline := make([]float64, maxLen)
	counts := make([]int, maxLen)
	for k := range trajs {
		for i, g := range returns[k] {
			baseline[i] += g
			counts[i]++
		}
	}
	for i := range baseline {
		if counts[i] >= 2 {
			baseline[i] /= float64(counts[i])
		} else {
			baseline[i] = globalMean
		}
	}
	// Advantages, globally normalized.
	var advs []float64
	for k := range trajs {
		for i, g := range returns[k] {
			advs = append(advs, g-baseline[i])
		}
	}
	_, std := meanStd(advs)

	r.Net.ZeroGrad()
	grad := make([]float64, 1)
	inv := 1 / float64(n)
	ai := 0
	for k, tr := range trajs {
		_ = k
		for _, s := range tr {
			adv := advs[ai]
			ai++
			if std > 1e-9 {
				adv /= std
			}
			mu := r.Mean(s.obs) // forward caches activations for Backward
			grad[0] = -adv * (s.action - mu) / (r.Sigma * r.Sigma) * inv
			r.Net.Backward(grad)
		}
	}
	r.Net.ClipGrad(5)
	r.Opt.Step(r.Net)
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
