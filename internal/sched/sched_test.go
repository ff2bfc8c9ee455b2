package sched

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/workload"
)

// trainSet builds a labeled set from the web-search workload.
func trainSet(seed int64, n int, drift float64) ([][]float64, []int64) {
	fm := NewFeatureModel(seed)
	fm.Drift = drift
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(seed + 100))
	feats := make([][]float64, n)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		sizes[i] = dist.Sample(r)
		feats[i] = fm.Features(sizes[i])
	}
	return feats, sizes
}

func TestFFNNLearnsFlowSizes(t *testing.T) {
	net := NewFFNN(1)
	feats, sizes := trainSet(2, 512, 0)
	loss := Train(net, feats, sizes, 600)
	if loss > 0.002 {
		t.Fatalf("training loss = %v, want ≤ 0.002", loss)
	}
	// Held-out evaluation: order-of-magnitude accuracy.
	testF, testS := trainSet(3, 200, 0)
	var correctBand int
	for i := range testF {
		pred := PredictedBytes(net.Infer(testF[i])[0])
		if PrioOf(pred) == PrioOf(float64(testS[i])) {
			correctBand++
		}
	}
	frac := float64(correctBand) / float64(len(testF))
	if frac < 0.6 {
		t.Errorf("band accuracy = %.2f, want ≥ 0.6", frac)
	}
}

func TestDriftDegradesFrozenModel(t *testing.T) {
	// A model trained at drift 0 must misclassify under feature drift —
	// the premise of the N-O-A comparison — and retraining must recover.
	net := NewFFNN(1)
	feats, sizes := trainSet(2, 512, 0)
	Train(net, feats, sizes, 600)

	bandAcc := func(drift float64) float64 {
		testF, testS := trainSet(9, 300, drift)
		ok := 0
		for i := range testF {
			if PrioOf(PredictedBytes(net.Infer(testF[i])[0])) == PrioOf(float64(testS[i])) {
				ok++
			}
		}
		return float64(ok) / float64(len(testF))
	}
	clean := bandAcc(0)
	drifted := bandAcc(0.15)
	if drifted >= clean {
		t.Errorf("drift must hurt the frozen model: clean %.2f, drifted %.2f", clean, drifted)
	}
	// Online adaptation: retrain on drifted data.
	f2, s2 := trainSet(11, 512, 0.15)
	Train(net, f2, s2, 600)
	recovered := bandAcc(0.15)
	if recovered <= drifted {
		t.Errorf("retraining must recover accuracy: drifted %.2f, recovered %.2f", drifted, recovered)
	}
}

func TestPrioOf(t *testing.T) {
	cases := map[float64]int{
		1e3: 0, 9e3: 0, 15e3: 1, 50e3: 2, 200e3: 3, 500e3: 4, 2e6: 5, 5e6: 6, 50e6: 7,
	}
	for size, want := range cases {
		if got := PrioOf(size); got != want {
			t.Errorf("PrioOf(%g) = %d, want %d", size, got, want)
		}
	}
}

func TestTargetRoundTrip(t *testing.T) {
	for _, s := range []int64{1000, 50_000, 2_000_000} {
		back := PredictedBytes(Target(s))
		if math.Abs(back-float64(s))/float64(s) > 0.01 {
			t.Errorf("round trip %d -> %.0f", s, back)
		}
	}
}

func TestTrainEmptySetIsSafe(t *testing.T) {
	if got := Train(NewFFNN(1), nil, nil, 10); got != 0 {
		t.Error("empty training set must return 0")
	}
}

// deployArms deploys net's snapshot on a fresh engine and returns the
// kernel, char-device and netlink arms over it, deciding by Decode.
func deployArms(net *nn.Network) (*netsim.Engine, [3]rig.Decider) {
	eng := netsim.NewEngine()
	costs := ksim.DefaultCosts()
	cfg := core.DefaultConfig()
	c := rig.Deploy(eng, nil, costs, cfg, rig.Build(net, cfg.Quant, "ffnn")).Core
	c.SetFlowCache(false)
	return eng, [3]rig.Decider{
		rig.KernelDecider(c, 1, -1, Decode),
		rig.UserDecider(eng, costs, net, rig.CharDev, 2, Decode),
		rig.UserDecider(eng, costs, net, rig.Netlink, 2, Decode),
	}
}

// trainedArms deploys an FFNN trained on the web-search workload.
func trainedArms() (*netsim.Engine, [3]rig.Decider) {
	net := NewFFNN(1)
	feats, sizes := trainSet(2, 256, 0)
	Train(net, feats, sizes, 300)
	return deployArms(net)
}

func TestPredictionLatencyOrdering(t *testing.T) {
	// Figure 15's shape: LF < char-dev < netlink, µs scale.
	eng, arms := trainedArms()
	fm := NewFeatureModel(5)
	var mean [3]float64 // µs
	for a, decide := range arms {
		var sum netsim.Time
		const n = 200
		for i := 0; i < n; i++ {
			sum += decide(0, fm.Features(50_000), func(int) {})
		}
		eng.Run()
		mean[a] = float64(sum) / n / 1e3
	}
	if !(mean[0] < mean[1] && mean[1] < mean[2]) {
		t.Errorf("latency ordering broken: LF=%.2fµs char=%.2fµs netlink=%.2fµs", mean[0], mean[1], mean[2])
	}
	if mean[0] < 0.5 || mean[0] > 5 {
		t.Errorf("LF latency = %.2fµs, want low-µs scale", mean[0])
	}
	if mean[2] < 5 || mean[2] > 15 {
		t.Errorf("netlink latency = %.2fµs, want ≈ 8µs scale", mean[2])
	}
}

func TestPredictorsAgreeOnPriority(t *testing.T) {
	eng, arms := trainedArms()
	fm := NewFeatureModel(6)
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(3))
	agree := 0
	const n = 100
	for i := 0; i < n; i++ {
		f := fm.Features(dist.Sample(r))
		var pk, pc int
		arms[0](0, f, func(p int) { pk = p })
		arms[1](0, f, func(p int) { pc = p })
		eng.Run()
		if pk == pc {
			agree++
		}
	}
	if float64(agree)/n < 0.9 {
		t.Errorf("kernel and userspace deployments disagree too often: %d/%d", agree, n)
	}
}

// BenchmarkKernelPredict is one priority decision through lf_query_model.
func BenchmarkKernelPredict(b *testing.B) {
	eng, arms := deployArms(NewFFNN(1))
	f := make([]float64, NumFeatures)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arms[0](0, f, func(int) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
}
