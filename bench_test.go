package liteflow_test

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// §3): each runs the corresponding experiment end-to-end on the simulated
// substrate at a reduced scale and reports the headline quantities via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every result.
// cmd/lfbench prints the full rows at paper scale.

import (
	"testing"

	liteflow "github.com/liteflow-sim/liteflow"
	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/experiments"
	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
)

// benchCfg keeps full-suite bench runs tractable; cmd/lfbench -all uses
// Scale 1.
func benchCfg() experiments.Config { return experiments.Config{Scale: 0.1, Seed: 1} }

func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = r.Run(benchCfg())
	}
	return res
}

func BenchmarkFig01a(b *testing.B) {
	res := runExperiment(b, "fig1a")
	if s := series(res, "100ms"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.X[len(s.X)/2], "goodput-p50-100ms-Gbps")
	}
}

func BenchmarkFig01b(b *testing.B) { runExperiment(b, "fig1b") }

func BenchmarkFig02(b *testing.B) { runExperiment(b, "fig2") }

func BenchmarkFig03(b *testing.B) {
	res := runExperiment(b, "fig3")
	if s := series(res, "CCP-Aurora-1ms"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[len(s.Y)-1], "ccp1ms-over-bbr-at-N10")
	}
}

func BenchmarkFig04(b *testing.B) {
	res := runExperiment(b, "fig4")
	if s := series(res, "softirq-share-%"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[0], "bbr-softirq-share-pct")
		b.ReportMetric(s.Y[len(s.Y)-1], "ccp1ms-softirq-share-pct")
	}
}

func BenchmarkFig05(b *testing.B) { runExperiment(b, "fig5") }

func BenchmarkFig07(b *testing.B) {
	res := runExperiment(b, "fig7")
	if s := series(res, "Aurora"); s != nil && len(s.Y) >= 4 {
		b.ReportMetric(s.Y[3]*100, "aurora-loss-at-C1000-pct")
	}
}

func BenchmarkFig08(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig11(b *testing.B) {
	res := runExperiment(b, "fig11")
	if s := series(res, "goodput"); s != nil && len(s.Y) >= 5 {
		b.ReportMetric(s.Y[0], "lf-aurora-Gbps")
		b.ReportMetric(s.Y[4], "ccp-aurora-100ms-Gbps")
	}
}

func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkFig13(b *testing.B) {
	res := runExperiment(b, "fig13")
	if s := series(res, "LF-Aurora"); s != nil && len(s.Y) > 0 {
		b.ReportMetric(s.Y[len(s.Y)-1], "lf-aurora-over-bbr-at-N10")
	}
}

func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

func BenchmarkDummyNN(b *testing.B) { runExperiment(b, "dummy") }

func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

func BenchmarkFig16(b *testing.B) {
	res := runExperiment(b, "fig16")
	if s := series(res, "LF-FFNN"); s != nil && len(s.Y) >= 3 {
		b.ReportMetric(s.Y[0], "lf-ffnn-short-fct-us")
		b.ReportMetric(s.Y[2], "lf-ffnn-long-fct-us")
	}
}

func BenchmarkFig17(b *testing.B) {
	res := runExperiment(b, "fig17")
	if s := series(res, "LF-MLP"); s != nil && len(s.Y) >= 3 {
		b.ReportMetric(s.Y[0], "lf-mlp-short-fct-us")
	}
}

// BenchmarkQuerySteadyState measures the steady-state cost of lf_query_model
// on a cached flow and enforces the zero-allocation contract with
// testing.AllocsPerRun (a failed bench run, not just a regressed number —
// see also alloc_test.go for the plain-test variant).
func BenchmarkQuerySteadyState(b *testing.B) {
	lf, in, out := queryFixture(b)
	if err := lf.QueryModel(1, in, out); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lf.QueryModel(1, in, out); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state QueryModel allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lf.QueryModel(1, in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotBuild measures what one slow-path install pays on the
// host: Quantize + Build of a retuned network whose architecture and quant
// config the process has already seen (every install after the first), so
// the activation unit and the model frame are memoised and what is left is
// quantizing, emitting the model unit and one pass to derive its frame.
func BenchmarkSnapshotBuild(b *testing.B) {
	for _, m := range []struct {
		name string
		net  *nn.Network
	}{
		{"aurora-alpha", cc.NewAuroraAlphaNet(1)},
		{"mocc", cc.NewMOCCNet(1)},
	} {
		b.Run(m.name, func(b *testing.B) {
			cfg := liteflow.DefaultQuantConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := liteflow.BuildSnapshot(m.net, cfg, "snap"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupManyFlows measures steady-state QueryModel with 100k flows
// resident in the cache's table: a hit is one probe run over inline entries
// and a timestamp store, so it must stay allocation-free regardless of cache
// population.
func BenchmarkLookupManyFlows(b *testing.B) {
	lf, in, out := queryFixture(b)
	const resident = 100_000
	for f := 1; f <= resident; f++ {
		if err := lf.QueryModel(liteflow.FlowID(f), in, out); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lf.QueryModel(liteflow.FlowID(resident/2), in, out); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("many-flows lookup allocates %.1f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lf.QueryModel(liteflow.FlowID(i%resident+1), in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepChurn measures the insert→expire cycle through the
// incremental sweeper: each op caches a batch of fresh flows and advances
// virtual time past the cache timeout, so the timing wheel parks, scans and
// evicts every entry.
func BenchmarkSweepChurn(b *testing.B) {
	eng := liteflow.NewEngine()
	cfg := liteflow.DefaultConfig()
	cfg.FlowCacheTimeout = liteflow.Millisecond
	lf := liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), cfg)
	net := liteflow.NewNetwork([]int{30, 32, 16, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Tanh, liteflow.Tanh}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "aurora")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lf.RegisterModel(snap); err != nil {
		b.Fatal(err)
	}
	in := make([]int64, 30)
	out := make([]int64, 1)
	const batch = 256
	next := liteflow.FlowID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			if err := lf.QueryModel(next, in, out); err != nil {
				b.Fatal(err)
			}
			next++
		}
		eng.RunUntil(eng.Now() + 2*liteflow.Millisecond)
	}
	b.StopTimer()
	lf.StopSweeper()
	if n := lf.CachedFlows(); n != 0 {
		b.Fatalf("sweeper left %d flows cached after the timeout horizon", n)
	}
}

// BenchmarkTable1API measures the core API's hot entry point, lf_query_model
// through the flow cache — the per-inference cost a datapath function pays.
func BenchmarkTable1API(b *testing.B) {
	eng := liteflow.NewEngine()
	cfg := liteflow.DefaultConfig()
	cfg.FlowCacheTimeout = 0
	lf := liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), cfg)
	net := liteflow.NewNetwork([]int{30, 32, 16, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Tanh, liteflow.Tanh}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "aurora")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lf.RegisterModel(snap); err != nil {
		b.Fatal(err)
	}
	in := make([]int64, 30)
	out := make([]int64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lf.QueryModel(1, in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetFanout measures one full distribution-plane wave: 8 members
// behind one fleet controller, with a model that changes every pooled round,
// so each op is push → aggregate → gate → build → 8 bounded-concurrency
// member installs. This is the control-plane cost of keeping a fleet at
// epoch parity, the figure the fleet-scale experiment scales up.
func BenchmarkFleetFanout(b *testing.B) {
	eng := netsim.NewEngine()
	cfg := core.DefaultConfig()
	cfg.StabilityWindow = 1 // open the correctness gate on the first round
	user := &fanoutUser{Network: nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1), sign: 0.5}
	ctrl := fleet.New(eng, cfg, user, user, user, fleet.Config{
		BatchInterval:         netsim.Millisecond,
		AggregationInterval:   netsim.Millisecond,
		MaxConcurrentInstalls: 8,
	})
	costs := ksim.DefaultCosts()
	for i := 0; i < 8; i++ {
		cpu := ksim.NewHostCPU(eng, 4)
		if _, err := ctrl.AddMember(core.NewCore(eng, cpu, costs, cfg),
			netlink.NewChannel(eng, cpu, costs, nil)); err != nil {
			b.Fatal(err)
		}
	}
	if err := ctrl.Start(); err != nil {
		b.Fatal(err)
	}
	input := []float64{0.1, 0.2, 0.3, 0.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ctrl.Members() {
			m.Chan.Push(core.EncodeSample(core.Sample{Input: input, At: eng.Now()}))
		}
		eng.RunUntil(eng.Now() + 2*netsim.Millisecond)
	}
	b.StopTimer()
	// Drain the last wave: its installs land just past the measured window.
	eng.RunUntil(eng.Now() + 2*netsim.Millisecond)
	ctrl.Stop()
	st := ctrl.Stats()
	if st.VersionsBuilt == 0 || st.MemberInstalls == 0 {
		b.Fatalf("fan-out never fired: %d versions, %d installs", st.VersionsBuilt, st.MemberInstalls)
	}
	if st.StaleMembers != 0 {
		b.Fatalf("%d members stale after the drain", st.StaleMembers)
	}
	b.ReportMetric(float64(st.MemberInstalls)/float64(b.N), "installs/op")
}

// fanoutUser flips the model every pooled adaptation round, so every
// aggregation fails the necessity gate and mints a new epoch.
type fanoutUser struct {
	*nn.Network
	sign float64
}

func (u *fanoutUser) Stability() float64 { return 0.5 }
func (u *fanoutUser) Adapt([]core.Sample) {
	u.Layers[len(u.Layers)-1].B[0] += u.sign
	u.sign = -u.sign
}

// series returns res's series with the given name, or nil.
func series(res experiments.Result, name string) *experiments.Series {
	for i := range res.Series {
		if res.Series[i].Name == name {
			return &res.Series[i]
		}
	}
	return nil
}
