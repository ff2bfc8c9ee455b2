package sched

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/quant"
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
	loss := Train(net, feats, sizes, 600, 1e-2)
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
	Train(net, feats, sizes, 600, 1e-2)

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
	Train(net, f2, s2, 600, 1e-2)
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
	if got := Train(NewFFNN(1), nil, nil, 10, 1e-3); got != 0 {
		t.Error("empty training set must return 0")
	}
}

// latencyRig builds all three predictors over the same trained model.
func latencyRig(t *testing.T) (*netsim.Engine, *KernelPredictor, *UserPredictor, *UserPredictor) {
	t.Helper()
	eng := netsim.NewEngine()
	costs := ksim.DefaultCosts()
	net := NewFFNN(1)
	feats, sizes := trainSet(2, 256, 0)
	Train(net, feats, sizes, 300, 1e-2)
	prog := quant.Quantize(net, quant.DefaultConfig())
	kp := NewKernelPredictor(eng, nil, costs, prog)
	char := NewUserPredictor(eng, nil, costs, net, CharDev)
	nl := NewUserPredictor(eng, nil, costs, net, Netlink)
	return eng, kp, char, nl
}

func TestPredictionLatencyOrdering(t *testing.T) {
	// Figure 15's shape: LF < char-dev < netlink, µs scale.
	eng, kp, char, nl := latencyRig(t)
	fm := NewFeatureModel(5)
	mean := func(p Predictor) float64 {
		var sum netsim.Time
		const n = 200
		for i := 0; i < n; i++ {
			sum += p.Predict(fm.Features(50_000), func(int) {})
		}
		eng.Run()
		return float64(sum) / n / 1e3 // µs
	}
	lf := mean(kp)
	cd := mean(char)
	nlk := mean(nl)
	if !(lf < cd && cd < nlk) {
		t.Errorf("latency ordering broken: LF=%.2fµs char=%.2fµs netlink=%.2fµs", lf, cd, nlk)
	}
	if lf < 0.5 || lf > 5 {
		t.Errorf("LF latency = %.2fµs, want low-µs scale", lf)
	}
	if nlk < 5 || nlk > 15 {
		t.Errorf("netlink latency = %.2fµs, want ≈ 8µs scale", nlk)
	}
}

func TestPredictorsAgreeOnPriority(t *testing.T) {
	eng, kp, char, _ := latencyRig(t)
	fm := NewFeatureModel(6)
	dist := workload.WebSearch()
	r := rand.New(rand.NewSource(3))
	agree := 0
	const n = 100
	for i := 0; i < n; i++ {
		f := fm.Features(dist.Sample(r))
		var pk, pc int
		kp.Predict(f, func(p int) { pk = p })
		char.Predict(f, func(p int) { pc = p })
		eng.Run()
		if pk == pc {
			agree++
		}
	}
	if float64(agree)/n < 0.9 {
		t.Errorf("kernel and userspace deployments disagree too often: %d/%d", agree, n)
	}
}

func TestUserPredictorChargesCPU(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	costs := ksim.DefaultCosts()
	up := NewUserPredictor(eng, cpu, costs, NewFFNN(1), CharDev)
	up.Predict(make([]float64, NumFeatures), func(int) {})
	eng.Run()
	if cpu.BusyTime(ksim.SoftIRQ) == 0 || cpu.BusyTime(ksim.User) == 0 {
		t.Error("userspace prediction must charge softirq and user CPU time")
	}
	kp := NewKernelPredictor(eng, cpu, costs, quant.Quantize(NewFFNN(1), quant.DefaultConfig()))
	before := cpu.BusyTime(ksim.SoftIRQ)
	kp.Predict(make([]float64, NumFeatures), func(int) {})
	eng.Run()
	if cpu.BusyTime(ksim.SoftIRQ) != before {
		t.Error("kernel prediction must not cost cross-space softirq")
	}
	if cpu.BusyTime(ksim.Kernel) == 0 {
		t.Error("kernel prediction must charge kernel time")
	}
}

func TestOraclePredictor(t *testing.T) {
	o := &OraclePredictor{SizeOf: func(f []float64) int64 { return int64(f[0]) }}
	var got int
	lat := o.Predict([]float64{5_000}, func(p int) { got = p })
	if lat != 0 || got != 0 {
		t.Errorf("oracle: lat=%v prio=%d, want 0/0", lat, got)
	}
	o.Predict([]float64{5_000_000}, func(p int) { got = p })
	if got != 6 {
		t.Errorf("oracle prio for 5MB = %d, want 6", got)
	}
}

func BenchmarkKernelPredict(b *testing.B) {
	eng := netsim.NewEngine()
	prog := quant.Quantize(NewFFNN(1), quant.DefaultConfig())
	kp := NewKernelPredictor(eng, nil, ksim.DefaultCosts(), prog)
	f := make([]float64, NumFeatures)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kp.Predict(f, func(int) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
}
