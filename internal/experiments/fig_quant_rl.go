package experiments

import (
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/lb"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/rl"
	"github.com/liteflow-sim/liteflow/internal/sched"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// Fig07 reproduces Figure 7: accuracy loss of LiteFlow's integer
// quantization across all four evaluated NNs as the output scaling factor C
// grows. With C = 1000 (the paper's example), the loss sits around the
// paper's ~2% average; with C = 1 the output collapses.
func Fig07(cfg Config) Result {
	res := Result{ID: "fig7", Title: "Quantization accuracy loss vs scaling factor",
		XLabel: "scaling factor C", YLabel: "accuracy loss"}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.count(400)

	type model struct {
		name   string
		net    *nn.Network
		inputs [][]float64
	}
	aur, mocc := pretrainedNets()
	ffnn := sched.NewFFNN(5)
	mlp := lb.NewMLP(2, 6)
	// Give FFNN and MLP trained weights so outputs are meaningful.
	fm := sched.NewFeatureModel(7)
	dist := workload.WebSearch()
	var feats [][]float64
	var sizes []int64
	for i := 0; i < 256; i++ {
		s := dist.Sample(r)
		sizes = append(sizes, s)
		feats = append(feats, fm.Features(s))
	}
	sched.Train(ffnn, feats, sizes, 200, 1e-2)
	lb.Train(mlp, 2, 200, 1e-2, 1.0, cfg.Seed)

	ccInputs := make([][]float64, n)
	for i := range ccInputs {
		ccInputs[i] = cc.RandomState(r)
	}
	schedInputs := make([][]float64, n)
	for i := range schedInputs {
		schedInputs[i] = fm.Features(dist.Sample(r))
	}
	lbInputs := make([][]float64, n)
	for i := range lbInputs {
		lbInputs[i] = lb.RandomFeatures(r, 2, 1.0)
	}

	models := []model{
		{"Aurora", aur, ccInputs},
		{"MOCC", mocc, ccInputs},
		{"FFNN", ffnn, schedInputs},
		{"MLP", mlp, lbInputs},
	}
	for _, m := range models {
		s := Series{Name: m.name}
		for _, c := range []int64{1, 10, 100, 1000, 10000} {
			qc := quant.DefaultConfig()
			qc.OutputScale = c
			loss := quant.AccuracyLoss(m.net, quant.Quantize(m.net, qc), m.inputs)
			s.X = append(s.X, float64(c))
			s.Y = append(s.Y, loss)
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: loss at C=1000 is %.4f", m.name, s.Y[3]))
	}
	return res
}

// Fig08 reproduces Figure 8: Aurora's online adaptation reward across
// training iterations, and the goodput a snapshot frozen every 100
// iterations would deliver. Snapshots taken before exploration converges
// perform poorly — the motivation for the correctness gate (§3.3).
func Fig08(cfg Config) Result {
	res := Result{ID: "fig8", Title: "Adaptation convergence vs snapshot goodput",
		XLabel: "iteration", YLabel: "reward / goodput Mbps"}
	net := cc.NewAuroraNet(cfg.Seed)
	learner := rl.NewREINFORCE(net, 5e-3, cfg.Seed+1)
	env := rl.NewLinkEnv(cfg.Seed + 2)
	env.Steps = 120

	iters := cfg.count(800)
	const batch = 4
	reward := Series{Name: "training-reward"}
	goodput := Series{Name: "snapshot-goodput"}

	// evaluate deploys the current policy deterministically on a fresh
	// link and reports mean utilization as goodput of a 12 Mbps link.
	evaluate := func() float64 {
		eval := rl.NewLinkEnv(999)
		eval.Steps = 200
		obs := eval.Reset()
		var util float64
		for t := 0; t < eval.Steps; t++ {
			var done bool
			obs, _, done = eval.Step(learner.Mean(obs))
			util += eval.Utilization()
			if done {
				break
			}
		}
		return util / float64(eval.Steps) * 12 // Mbps on the toy link
	}

	for it := 0; it < iters; it += batch {
		ret := learner.RunBatch(env, batch, env.Steps)
		reward.X = append(reward.X, float64(it))
		reward.Y = append(reward.Y, ret)
		if it%100 < batch {
			goodput.X = append(goodput.X, float64(it))
			goodput.Y = append(goodput.Y, evaluate())
		}
	}
	res.Series = append(res.Series, reward, goodput)
	res.Notes = append(res.Notes,
		fmt.Sprintf("first snapshot goodput %.2f Mbps, final %.2f Mbps",
			goodput.Y[0], goodput.Y[len(goodput.Y)-1]))
	return res
}
