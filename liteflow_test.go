package liteflow_test

import (
	"errors"
	"strings"
	"testing"

	liteflow "github.com/liteflow-sim/liteflow"
)

// TestPublicAPILifecycle drives the full facade: build → quantize → generate
// → register → query → adapt → update, asserting the paper's Table 1
// semantics through the public package only.
func TestPublicAPILifecycle(t *testing.T) {
	eng := liteflow.NewEngine()
	cpu := liteflow.NewHostCPU(eng, 4)
	costs := liteflow.DefaultCosts()

	net := liteflow.NewNetwork([]int{4, 6, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Sigmoid}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "api_test")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.Source(), "Infer_api_test") {
		t.Error("generated source must expose the inference entry point")
	}

	cfg := liteflow.DefaultConfig()
	cfg.OutMin, cfg.OutMax = 0, 1
	cfg.FlowCacheTimeout = 0
	lf := liteflow.NewCore(eng, cpu, costs, cfg)
	if _, err := lf.RegisterModel(snap); err != nil {
		t.Fatal(err)
	}

	in := snap.Program.QuantizeInput([]float64{0.1, 0.2, 0.3, 0.4}, nil)
	out := make([]int64, 1)
	if err := lf.QueryModel(1, in, out); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 1)
	snap.Program.Infer(in, want)
	if out[0] != want[0] {
		t.Errorf("QueryModel = %d, direct = %d", out[0], want[0])
	}

	// Slow path through the facade.
	u := &apiUser{Network: net.Clone()}
	u.Layers[1].B[0] += 2 // diverge so an update becomes necessary
	ch := liteflow.NewNetlinkChannel(eng, cpu, costs, nil)
	svc := liteflow.NewSlowPath(lf, ch, u, u, u)
	updated := false
	svc.OnUpdate = func(m *liteflow.Model) { updated = true }
	svc.Start(50 * liteflow.Millisecond)
	for i := 0; i < 80; i++ {
		ch.Push(liteflow.EncodeSample(liteflow.Sample{
			Input: []float64{0.1, 0.2, 0.3, float64(i%7) / 7},
			At:    eng.Now(),
		}))
		eng.RunUntil(eng.Now() + 10*liteflow.Millisecond)
	}
	ch.StopBatching()
	lf.StopSweeper()
	if !updated {
		t.Errorf("diverged model must trigger a snapshot update; stats %+v", svc.Stats())
	}
	if lf.Stats().Switches == 0 {
		t.Error("update must switch router roles")
	}
}

type apiUser struct{ *liteflow.Network }

func (u *apiUser) Stability() float64            { return 0.01 }
func (u *apiUser) Adapt(batch []liteflow.Sample) {}

func TestSampleCodecFacade(t *testing.T) {
	s := liteflow.Sample{Input: []float64{1, 2}, Aux: []float64{3}, At: 9}
	got, err := liteflow.ParseSample(liteflow.EncodeSample(s))
	if err != nil || got.Input[1] != 2 || got.Aux[0] != 3 || got.At != 9 {
		t.Errorf("codec round trip failed: %+v", got)
	}
}

// TestNetlinkDeliverCopiesToKeep: Push copies the caller's payload, and a
// deliver that keeps samples past its return copies them with ParseSample;
// the copies hold every pushed sample, in order, after later batches reuse
// the channel's buffers.
func TestNetlinkDeliverCopiesToKeep(t *testing.T) {
	eng := liteflow.NewEngine()
	var kept []liteflow.Sample
	ch := liteflow.NewNetlinkChannel(eng, liteflow.NewHostCPU(eng, 1), liteflow.DefaultCosts(), func(batch []liteflow.Message) {
		for _, m := range batch {
			s, err := liteflow.ParseSample(m)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, s)
		}
	})
	m := liteflow.EncodeSample(liteflow.Sample{Input: []float64{0, 0}})
	for i := range 12 {
		m.Data[1], m.Data[2] = float64(i), float64(-i) // one payload reused for every push
		ch.Push(m)
		if i%3 == 2 {
			ch.Flush()
			eng.Run()
		}
	}
	if len(kept) != 12 {
		t.Fatalf("kept %d samples, want 12", len(kept))
	}
	for i, s := range kept {
		if s.Input[0] != float64(i) || s.Input[1] != float64(-i) {
			t.Errorf("sample %d = %v, want [%d %d]", i, s.Input, i, -i)
		}
	}
}

func TestGenerateSourceFacade(t *testing.T) {
	net := liteflow.NewNetwork([]int{2, 2}, []liteflow.Activation{liteflow.ReLU}, 1)
	src, err := liteflow.GenerateSource(liteflow.Quantize(net, liteflow.DefaultQuantConfig()), "gen")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "fc_0_comp") {
		t.Error("source missing layer function")
	}
	if _, err := liteflow.GenerateSource(liteflow.Quantize(net, liteflow.DefaultQuantConfig()), "bad name"); err == nil {
		t.Error("invalid name must be rejected")
	}
}

// TestOptionsAPILifecycle exercises the constructors end to end: an
// injected-fault run with the watchdog window in Config and the injector on
// the channel, retry policies, sentinel-error classification, and profile
// lookup — all through the public facade.
func TestOptionsAPILifecycle(t *testing.T) {
	eng := liteflow.NewEngine()
	cpu := liteflow.NewHostCPU(eng, 4)
	costs := liteflow.DefaultCosts()
	sc := liteflow.NewScope(nil, nil)

	prof, ok := liteflow.FaultProfileByName("chaos")
	if !ok || !prof.Active() {
		t.Fatal("chaos profile must resolve and be active")
	}
	if _, ok := liteflow.FaultProfileByName("nope"); ok {
		t.Fatal("unknown profile name must be rejected")
	}
	inj := liteflow.NewFaultInjector(prof, 42, sc)

	net := liteflow.NewNetwork([]int{4, 6, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Sigmoid}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "opts_test")
	if err != nil {
		t.Fatal(err)
	}

	cfg := liteflow.DefaultConfig()
	cfg.OutMin, cfg.OutMax = 0, 1
	cfg.FlowCacheTimeout = 0
	cfg.WatchdogWindow = 200 * liteflow.Millisecond
	lf := liteflow.NewCore(eng, cpu, costs, cfg, liteflow.WithScope(sc))
	defer lf.StopWatchdog()
	if _, err := lf.RegisterModel(snap); err != nil {
		t.Fatal(err)
	}

	u := &apiUser{Network: net.Clone()}
	ch := liteflow.NewNetlinkChannel(eng, cpu, costs, nil, liteflow.WithScope(sc))
	ch.SetFaults(inj)
	svc := liteflow.NewSlowPath(lf, ch, u, u, u)
	svc.Start(50 * liteflow.Millisecond)
	for i := 0; i < 60; i++ {
		ch.Push(liteflow.EncodeSample(liteflow.Sample{
			Input: []float64{0.1, 0.2, 0.3, float64(i%7) / 7},
			At:    eng.Now(),
		}))
		eng.RunUntil(eng.Now() + 10*liteflow.Millisecond)
	}
	ch.StopBatching()
	lf.StopSweeper()

	if inj.Stats().Total() == 0 {
		t.Error("chaos injector fired nothing over 600 virtual ms")
	}
	in := snap.Program.QuantizeInput([]float64{0.1, 0.2, 0.3, 0.4}, nil)
	out := make([]int64, 1)
	if err := lf.QueryModel(1, in, out); err != nil {
		t.Errorf("fast path must keep serving under faults: %v", err)
	}

	// Sentinel errors survive the facade re-export.
	wrongDims := liteflow.NewNetwork([]int{2, 2}, []liteflow.Activation{liteflow.ReLU}, 2)
	badSnap, err := liteflow.BuildSnapshot(wrongDims, liteflow.DefaultQuantConfig(), "wrong_dims")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.RegisterModel(badSnap); !errors.Is(err, liteflow.ErrDimensionMismatch) {
		t.Errorf("want ErrDimensionMismatch, got %v", err)
	}
	if _, err := liteflow.ParseSample(liteflow.Message{Data: []float64{-1, 1}}); !errors.Is(err, liteflow.ErrMalformedSample) {
		t.Errorf("want ErrMalformedSample, got %v", err)
	}
	if _, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "bad name"); !errors.Is(err, liteflow.ErrSnapshotBuild) {
		t.Errorf("want ErrSnapshotBuild, got %v", err)
	}
}
