package rl

import (
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// targetEnv is a trivial 1-step environment: reward = −(a − target)². The
// optimal policy outputs target everywhere; REINFORCE must find it.
type targetEnv struct {
	target float64
	steps  int
	t      int
}

func (e *targetEnv) Reset() []float64 { e.t = 0; return make([]float64, 3) }
func (e *targetEnv) Step(a float64) ([]float64, float64, bool) {
	e.t++
	d := a - e.target
	return make([]float64, 3), -d * d, e.t >= e.steps
}

func TestREINFORCEConvergesOnTargetTask(t *testing.T) {
	net := nn.New([]int{3, 8, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 0.01, 2)
	env := &targetEnv{target: 0.6, steps: 8}
	for ep := 0; ep < 400; ep++ {
		r.RunBatch(env, 1, 100)
	}
	got := r.Mean(make([]float64, 3))
	if math.Abs(got-0.6) > 0.15 {
		t.Errorf("learned mean = %.3f, want ≈ 0.6", got)
	}
	if r.Episodes != 400 {
		t.Errorf("Episodes = %d", r.Episodes)
	}
}

func TestSigmaDecays(t *testing.T) {
	net := nn.New([]int{3, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 0.01, 1)
	start := r.Sigma
	env := &targetEnv{target: 0, steps: 2}
	for ep := 0; ep < 50; ep++ {
		r.RunBatch(env, 1, 10)
	}
	if r.Sigma >= start {
		t.Error("sigma must decay across episodes")
	}
	r.Sigma = r.minSigma
	r.RunBatch(env, 1, 10)
	if r.Sigma < r.minSigma*0.99 {
		t.Error("sigma must not decay below minSigma")
	}
}

func TestSampleIsClipped(t *testing.T) {
	net := nn.New([]int{3, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 0.01, 1)
	r.Sigma = 10 // absurd exploration
	obs := make([]float64, 3)
	for i := 0; i < 100; i++ {
		a := r.Sample(obs)
		if a < -1 || a > 1 {
			t.Fatalf("sample %v out of [-1,1]", a)
		}
	}
}

func TestEmptyTrajectoryIsSafe(t *testing.T) {
	net := nn.New([]int{3, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 0.01, 1)
	r.update(nil)           // must not panic
	r.update([][]step{nil}) // nor with an empty trajectory
}

func TestRunBatchClampsEpisodeCount(t *testing.T) {
	net := nn.New([]int{3, 4, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 0.01, 1)
	env := &targetEnv{target: 0, steps: 2}
	r.RunBatch(env, 0, 10) // episodes < 1 clamps to 1
	if r.Episodes != 1 {
		t.Errorf("Episodes = %d, want 1", r.Episodes)
	}
}

func TestRewardFunctions(t *testing.T) {
	a := AuroraReward{}
	if a.Score(1, 0, 0) <= 0 {
		t.Error("full throughput, no latency must score positive")
	}
	if a.Score(1, 0, 0) <= a.Score(1, 0.5, 0.5) {
		t.Error("latency and loss must hurt the Aurora reward")
	}
}

func TestLinkEnvDynamics(t *testing.T) {
	e := NewLinkEnv(AuroraReward{}, 1)
	obs := e.Reset()
	if len(obs) != StateDim {
		t.Fatalf("obs dim = %d, want %d", len(obs), StateDim)
	}
	// Relentless increase must eventually cause queueing then loss.
	var sawQueue, sawNegReward bool
	for i := 0; i < 200; i++ {
		_, r, done := e.Step(1)
		if e.queue > 0 {
			sawQueue = true
		}
		if r < 0 {
			sawNegReward = true
		}
		if done {
			break
		}
	}
	if !sawQueue {
		t.Error("max-rate policy must build a queue")
	}
	if !sawNegReward {
		t.Error("overload must eventually produce negative rewards")
	}
}

func TestLinkEnvDecreaseDrainsQueue(t *testing.T) {
	e := NewLinkEnv(AuroraReward{}, 1)
	e.Reset()
	for i := 0; i < 60; i++ {
		e.Step(1)
	}
	q := e.queue
	for i := 0; i < 120; i++ {
		e.Step(-1)
	}
	if e.queue >= q {
		t.Errorf("backing off must drain the queue: %v -> %v", q, e.queue)
	}
}

func TestLinkEnvEpisodeTermination(t *testing.T) {
	e := NewLinkEnv(AuroraReward{}, 1)
	e.Steps = 10
	e.Reset()
	var done bool
	for i := 0; i < 10; i++ {
		_, _, done = e.Step(0)
	}
	if !done {
		t.Error("episode must end after Steps steps")
	}
}

func TestLinkEnvRandomization(t *testing.T) {
	e := NewLinkEnv(AuroraReward{}, 1)
	e.RandomizeBandwidth = true
	seen := map[float64]bool{}
	for i := 0; i < 10; i++ {
		e.Reset()
		seen[e.bw] = true
	}
	if len(seen) < 5 {
		t.Errorf("bandwidth should vary across episodes, got %d distinct", len(seen))
	}
}

func TestREINFORCEImprovesOnLinkEnv(t *testing.T) {
	// End-to-end: training on the fluid link must improve returns. This is
	// the Figure 8 machinery (online adaptation needs exploration time).
	net := nn.New([]int{StateDim, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}, 7)
	r := NewREINFORCE(net, 5e-3, 3)
	env := NewLinkEnv(AuroraReward{}, 4)
	env.Steps = 120

	early := r.RunBatch(env, 10, env.Steps)
	for it := 0; it < 40; it++ {
		r.RunBatch(env, 8, env.Steps)
	}
	late := r.RunBatch(env, 10, env.Steps)

	if late <= early {
		t.Errorf("training must improve returns: early %.1f, late %.1f", early, late)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{1, 2, 3, 4})
	if math.Abs(m-2.5) > 1e-12 || math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("meanStd = %v, %v", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd must be zero")
	}
}

func BenchmarkEpisode(b *testing.B) {
	net := nn.New([]int{StateDim, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}, 1)
	r := NewREINFORCE(net, 1e-3, 1)
	env := NewLinkEnv(AuroraReward{}, 2)
	env.Steps = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunBatch(env, 1, env.Steps)
	}
}
