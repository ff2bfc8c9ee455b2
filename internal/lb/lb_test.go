package lb

import (
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/rig"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

func TestMLPLearnsPathSelection(t *testing.T) {
	net := NewMLP(2, 1)
	loss := Train(net, 2, 400, 2)
	if loss > 0.15 {
		t.Fatalf("training loss = %v", loss)
	}
	acc := accuracy(net, 2, 500, SampleRegime, 3)
	if acc < 0.80 {
		t.Errorf("path accuracy = %.2f, want ≥ 0.80", acc)
	}
}

func TestRegimeShiftHurtsFrozenSelector(t *testing.T) {
	// Train where congestion shows as ECN marks; evaluate where it shows
	// as RTT inflation instead. A frozen model goes blind; retraining on
	// the new regime recovers — the N-O-A dynamic of Figure 17.
	net := NewMLP(2, 1)
	Train(net, 2, 400, 2)
	clean := accuracy(net, 2, 500, SampleRegime, 3)
	shifted := accuracy(net, 2, 500, rttRegime, 3)
	if shifted >= clean-0.1 {
		t.Errorf("regime shift must hurt: clean %.2f, shifted %.2f", clean, shifted)
	}
	// Retrain on the shifted regime, as Figure 17's online adapter does.
	r := rand.New(rand.NewSource(5))
	opt := nn.NewAdam(1e-2)
	x, y := make([][]float64, 64), make([][]float64, 64)
	for it := 0; it < 400; it++ {
		for i := range x {
			s := rttRegime(r, 2)
			x[i], y[i] = s.Features, make([]float64, 2)
			y[i][s.Best] = 1
		}
		nn.TrainBatch(net, opt, x, y, 5)
	}
	recovered := accuracy(net, 2, 500, rttRegime, 3)
	if recovered <= shifted+0.1 {
		t.Errorf("retraining must recover: shifted %.2f, recovered %.2f", shifted, recovered)
	}
}

func TestBestPathTeacher(t *testing.T) {
	// Path 0 congested, path 1 clean → pick 1.
	f := []float64{0.8, 0.0, 2.0, 0.5, 0.3}
	if got := BestPath(f, 2); got != 1 {
		t.Errorf("BestPath = %d, want 1", got)
	}
	// Symmetric: ties resolve to 0.
	f = []float64{0.1, 0.1, 1.0, 1.0, 0.5}
	if got := BestPath(f, 2); got != 0 {
		t.Errorf("tie BestPath = %d, want 0", got)
	}
}

func TestPathMonitorEWMA(t *testing.T) {
	m := NewPathMonitor(2)
	if len(m.ecn) != 2 {
		t.Fatal("paths wrong")
	}
	m.Observe(0, 1.0, 100*netsim.Microsecond)
	if m.ecn[0] != 1.0 {
		t.Errorf("first observation must seed the EWMA, got %v", m.ecn[0])
	}
	for i := 0; i < 50; i++ {
		m.Observe(0, 0.0, 50*netsim.Microsecond)
	}
	if m.ecn[0] > 0.01 {
		t.Errorf("EWMA must decay towards new samples, got %v", m.ecn[0])
	}
	// Out-of-range paths are ignored, not panics.
	m.Observe(-1, 1, 1)
	m.Observe(7, 1, 1)
	f := m.Features(0.5)
	if len(f) != InputDim(2) {
		t.Fatalf("features dim = %d", len(f))
	}
	if f[4] != 0.5 {
		t.Error("size feature misplaced")
	}
}

// deployArms deploys net's snapshot on a fresh engine and returns the
// kernel, char-device and netlink arms over it, deciding by Argmax.
func deployArms(net *nn.Network) (*netsim.Engine, [3]rig.Decider) {
	eng := netsim.NewEngine()
	costs := ksim.DefaultCosts()
	cfg := core.DefaultConfig()
	c := rig.Deploy(eng, nil, costs, cfg, rig.Build(net, cfg.Quant, "lbmlp")).Core
	c.SetFlowCache(false)
	return eng, [3]rig.Decider{
		rig.KernelDecider(c, 1, -1, Argmax),
		rig.UserDecider(eng, costs, net, rig.CharDev, 2, Argmax),
		rig.UserDecider(eng, costs, net, rig.Netlink, 2, Argmax),
	}
}

func TestSelectorsAgreeKernelVsUser(t *testing.T) {
	net := NewMLP(2, 1)
	Train(net, 2, 400, 2)
	eng, arms := deployArms(net)
	r := rand.New(rand.NewSource(7))
	agree := 0
	const n = 200
	for i := 0; i < n; i++ {
		f := SampleRegime(r, 2).Features
		var pk, pu int
		arms[0](0, f, func(p int) { pk = p })
		arms[1](0, f, func(p int) { pu = p })
		eng.Run()
		if pk == pu {
			agree++
		}
	}
	if float64(agree)/n < 0.93 {
		t.Errorf("deployments agree on only %d/%d selections", agree, n)
	}
}

// TestSelectorLatencyOrdering: Figure 15's shape for the path decode —
// kernel < char < netlink, at µs scale.
func TestSelectorLatencyOrdering(t *testing.T) {
	eng, arms := deployArms(NewMLP(2, 1))
	f := SampleRegime(rand.New(rand.NewSource(1)), 2).Features
	var mean [3]float64 // µs
	for a, decide := range arms {
		var sum netsim.Time
		const n = 50
		for i := 0; i < n; i++ {
			sum += decide(0, f, func(int) {})
		}
		eng.Run()
		mean[a] = float64(sum) / n / 1e3
	}
	if !(mean[0] < mean[1] && mean[1] < mean[2]) {
		t.Errorf("latency ordering broken: kernel=%.2fµs char=%.2fµs netlink=%.2fµs", mean[0], mean[1], mean[2])
	}
	if mean[0] < 0.5 || mean[0] > 5 {
		t.Errorf("kernel latency = %.2fµs, want low-µs scale", mean[0])
	}
	if mean[2] < 5 || mean[2] > 15 {
		t.Errorf("netlink latency = %.2fµs, want ≈ 8µs scale", mean[2])
	}
}

func TestECMPSelectorSpreads(t *testing.T) {
	e := &ECMPSelector{Paths: 2}
	counts := [2]int{}
	for i := 0; i < 1000; i++ {
		counts[e.Path()]++
	}
	if counts[0] < 300 || counts[1] < 300 {
		t.Errorf("ECMP skewed: %v", counts)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Error("Argmax wrong")
	}
	if Argmax([]float64{5}) != 0 {
		t.Error("single-element Argmax wrong")
	}
	if Argmax([]float64{2, 2, 1}) != 0 {
		t.Error("tie must pick lowest index")
	}
}

func TestFlowFeedbackStats(t *testing.T) {
	f := NewFlowFeedback()
	if ecn, rtt := f.Stats(); ecn != 0 || rtt != 0 {
		t.Errorf("before any ACK: %v, %v, want 0, 0", ecn, rtt)
	}
	f.OnAck(tcp.AckInfo{ECE: true, RTT: 30 * netsim.Microsecond})
	f.OnAck(tcp.AckInfo{RTT: 50 * netsim.Microsecond})
	if ecn, rtt := f.Stats(); ecn != 0.5 || rtt != 40*netsim.Microsecond {
		t.Errorf("Stats = %v, %v, want 0.5, 40µs", ecn, rtt)
	}
}

// BenchmarkKernelSelect is one path decision through lf_query_model.
func BenchmarkKernelSelect(b *testing.B) {
	eng, arms := deployArms(NewMLP(2, 1))
	f := make([]float64, InputDim(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arms[0](0, f, func(int) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
}

// rttRegime is SampleRegime's draw with congestion showing as RTT inflation
// (deep buffers, marking off) instead of ECN marks.
func rttRegime(r *rand.Rand, paths int) Sample {
	f := make([]float64, InputDim(paths))
	latent := make([]float64, paths)
	for p := 0; p < paths; p++ {
		if r.Float64() < 0.5 {
			latent[p] = 0.2 + 0.8*r.Float64()
		} else {
			latent[p] = 0.05 * r.Float64()
		}
		f[p] = absn(r) * 0.02
		f[paths+p] = 0.5 + latent[p]*2 + absn(r)*0.05
	}
	f[2*paths] = r.Float64()
	best := 0
	for p := 1; p < paths; p++ {
		if latent[p] < latent[best] {
			best = p
		}
	}
	return Sample{Features: f, Best: best}
}

// accuracy measures how often the model picks the oracle's path on n fresh
// samples from sample.
func accuracy(net *nn.Network, paths, n int, sample func(*rand.Rand, int) Sample, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, paths)
	ok := 0
	for i := 0; i < n; i++ {
		s := sample(r, paths)
		net.Forward(s.Features, out)
		if Argmax(out) == s.Best {
			ok++
		}
	}
	return float64(ok) / float64(n)
}
