package liteflow_test

// Allocation guards, always on and run again in CI's bench-smoke job:
// steady-state lf_query_model must not touch the heap at all, and a slow-path
// snapshot build stays within a fixed budget.

import (
	"math"
	"testing"

	liteflow "github.com/liteflow-sim/liteflow"
	"github.com/liteflow-sim/liteflow/internal/cc"
)

// queryFixture builds the Table-1 rig: a registered 30→32→16→1 snapshot on a
// core with the flow cache pinned (timeout 0 ⇒ the first query populates the
// cache and every later one is a steady-state hit).
func queryFixture(t testing.TB) (lf *liteflow.Core, in, out []int64) {
	t.Helper()
	eng := liteflow.NewEngine()
	cfg := liteflow.DefaultConfig()
	cfg.FlowCacheTimeout = 0
	lf = liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), cfg)
	net := liteflow.NewNetwork([]int{30, 32, 16, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Tanh, liteflow.Tanh}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "aurora")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.RegisterModel(snap); err != nil {
		t.Fatal(err)
	}
	return lf, make([]int64, 30), make([]int64, 1)
}

// TestQuerySteadyStateZeroAllocs is the zero-allocation contract for the
// fast path: after warmup (flow-cache entry + arena sized), QueryModel must
// perform no heap allocations per call.
func TestQuerySteadyStateZeroAllocs(t *testing.T) {
	lf, in, out := queryFixture(t)
	if err := lf.QueryModel(1, in, out); err != nil { // warm cache + arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := lf.QueryModel(1, in, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state QueryModel allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestQueryMissZeroAllocs extends the contract to the miss path: once the
// flow cache's table has grown to hold a population, pinning a new flow
// writes an entry in place and allocates nothing.
func TestQueryMissZeroAllocs(t *testing.T) {
	lf, in, out := queryFixture(t)
	const population = 1000
	for f := liteflow.FlowID(1); f <= population; f++ {
		if err := lf.QueryModel(f, in, out); err != nil {
			t.Fatal(err)
		}
	}
	for f := liteflow.FlowID(1); f <= population; f++ {
		lf.FlowFinished(f)
	}
	next := liteflow.FlowID(population)
	allocs := testing.AllocsPerRun(200, func() {
		next++
		if err := lf.QueryModel(next, in, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("QueryModel on a new flow allocates %.2f allocs/op, want 0", allocs)
	}
	if got := lf.CachedFlows(); got != 201 {
		t.Fatalf("CachedFlows = %d after 201 misses, want 201", got)
	}
}

// TestQuerySteadyStateZeroAllocsWithSampler extends the contract to an
// observability-enabled core with a flight recorder attached: metric updates
// on the query path are atomic adds, and the sampler runs on engine ticks,
// never inside lf_query_model — so the steady state stays allocation-free
// even while every series is being recorded.
func TestQuerySteadyStateZeroAllocsWithSampler(t *testing.T) {
	eng := liteflow.NewEngine()
	cfg := liteflow.DefaultConfig()
	cfg.FlowCacheTimeout = 0
	reg := liteflow.NewMetricsRegistry()
	lf := liteflow.NewCore(eng, nil, liteflow.DefaultCosts(), cfg,
		liteflow.WithScope(liteflow.NewScope(reg, nil)))
	net := liteflow.NewNetwork([]int{30, 32, 16, 1},
		[]liteflow.Activation{liteflow.Tanh, liteflow.Tanh, liteflow.Tanh}, 1)
	snap, err := liteflow.BuildSnapshot(net, liteflow.DefaultQuantConfig(), "aurora")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.RegisterModel(snap); err != nil {
		t.Fatal(err)
	}
	in, out := make([]int64, 30), make([]int64, 1)
	if err := lf.QueryModel(1, in, out); err != nil { // warm cache + arena
		t.Fatal(err)
	}

	fr := liteflow.NewFlightRecorder(0)
	fr.Sample(reg, 1) // series rings exist before the measured window
	allocs := testing.AllocsPerRun(200, func() {
		if err := lf.QueryModel(1, in, out); err != nil {
			t.Fatal(err)
		}
	})
	fr.Sample(reg, 2)
	if allocs != 0 {
		t.Errorf("steady-state QueryModel with sampler allocates %.1f allocs/op, want 0", allocs)
	}
	if n := len(fr.Window(math.MinInt64, math.MaxInt64)); fr.Ticks() != 2 || n == 0 {
		t.Fatalf("flight recorder did not record: ticks=%d series=%d", fr.Ticks(), n)
	}
}

// TestSnapshotBuildAllocBound guards the slow path's per-install host cost.
// Once the process has seen an architecture under a quant config, a retuned
// snapshot pays for its weights only: Quantize rounds them (the activation
// tables are shared), Build emits the model unit and derives its frame (the
// activation unit and the frame, parsed once, are memoised). That is ≈ 100
// allocations; a build that parses the model unit again costs ≈ 14.7k, one
// that regenerates or re-parses a table 55k.
func TestSnapshotBuildAllocBound(t *testing.T) {
	net := cc.NewAuroraAlphaNet(1)
	cfg := liteflow.DefaultQuantConfig()
	build := func() {
		if _, err := liteflow.BuildSnapshot(net, cfg, "alpha"); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm: tables, activation unit and model frame memoised
	if allocs := testing.AllocsPerRun(10, build); allocs > 500 {
		t.Errorf("warm Quantize + Build of Aurora-α allocates %.0f allocs/op, want ≤ 500", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { liteflow.Quantize(net, cfg) }); allocs > 80 {
		t.Errorf("warm Quantize of Aurora-α allocates %.0f allocs/op, want ≤ 80", allocs)
	}
}
