package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// buildModule quantizes net and wraps it as a generated module.
func buildModule(t testing.TB, net *nn.Network, name string) *codegen.Module {
	t.Helper()
	mod, err := codegen.Build(quant.Quantize(net, quant.DefaultConfig()), name)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func smallNet(seed int64) *nn.Network {
	return nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, seed)
}

// newCore returns a core without CPU accounting.
func newCore(t testing.TB) (*netsim.Engine, *Core) {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0 // no sweeper unless a test wants it
	return eng, NewCore(eng, nil, ksim.DefaultCosts(), cfg)
}

func TestRegisterFirstModelBecomesActive(t *testing.T) {
	_, c := newCore(t)
	m, err := c.RegisterModel(buildModule(t, smallNet(1), "m0"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Active() != m {
		t.Error("first model must be active")
	}
	if c.Models() != 1 {
		t.Errorf("Models = %d", c.Models())
	}
}

func TestRegisterValidation(t *testing.T) {
	_, c := newCore(t)
	if _, err := c.RegisterModel(nil); err == nil {
		t.Error("nil module must be rejected")
	}
	if _, err := c.RegisterModel(buildModule(t, smallNet(1), "m0")); err != nil {
		t.Fatal(err)
	}
	// Mismatched dimensions rejected.
	other := nn.New([]int{6, 4, 2}, []nn.Activation{nn.Tanh, nn.Linear}, 2)
	if _, err := c.RegisterModel(buildModule(t, other, "bad")); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
}

func TestActivateSwitchesRoles(t *testing.T) {
	_, c := newCore(t)
	if err := c.Activate(); err == nil {
		t.Error("Activate without standby must error")
	}
	m0, _ := c.RegisterModel(buildModule(t, smallNet(1), "m0"))
	m1, _ := c.RegisterModel(buildModule(t, smallNet(2), "m1"))
	if c.Active() != m0 {
		t.Fatal("m0 must stay active until switch")
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if c.Active() != m1 {
		t.Error("m1 must be active after switch")
	}
	if c.Stats().Switches != 1 {
		t.Errorf("Switches = %d", c.Stats().Switches)
	}
	// m0 had no flow references: it must be unloaded.
	if c.Models() != 1 {
		t.Errorf("retired unreferenced model must unload; Models = %d", c.Models())
	}
}

func TestQueryModelMatchesDirectInference(t *testing.T) {
	_, c := newCore(t)
	net := smallNet(3)
	mod := buildModule(t, net, "m0")
	c.RegisterModel(mod)
	in := mod.Program.QuantizeInput([]float64{0.1, -0.5, 0.7, 0.2}, nil)
	got := make([]int64, 1)
	if err := c.QueryModel(1, in, got); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 1)
	mod.Program.Infer(in, want)
	if got[0] != want[0] {
		t.Errorf("QueryModel = %d, direct = %d", got[0], want[0])
	}
	if c.Stats().Queries != 1 {
		t.Errorf("Queries = %d", c.Stats().Queries)
	}
}

func TestQueryModelWithoutModel(t *testing.T) {
	_, c := newCore(t)
	if err := c.QueryModel(1, nil, nil); err == nil {
		t.Error("query without a model must error")
	}
}

func TestQueryChargesKernelCPU(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
	mod := buildModule(t, smallNet(1), "m0")
	c.RegisterModel(mod)
	in := make([]int64, 4)
	out := make([]int64, 1)
	c.QueryModel(1, in, out)
	if cpu.BusyTime(ksim.Kernel) == 0 {
		t.Error("kernel inference must charge CPU")
	}
}

func TestFlowConsistencyAcrossSwitch(t *testing.T) {
	// The core of §3.4: a flow that started on snapshot m0 keeps using m0
	// after m1 activates; new flows use m1; FIN releases m0 for unload.
	_, c := newCore(t)
	netA, netB := smallNet(1), smallNet(99)
	modA := buildModule(t, netA, "m0")
	modB := buildModule(t, netB, "m1")
	c.RegisterModel(modA)

	in := modA.Program.QuantizeInput([]float64{0.3, 0.3, 0.3, 0.3}, nil)
	out := make([]int64, 1)

	c.QueryModel(42, in, out) // flow 42 pins m0
	wantA := make([]int64, 1)
	modA.Program.Infer(in, wantA)
	if out[0] != wantA[0] {
		t.Fatal("flow 42 must be served by m0")
	}

	c.RegisterModel(modB)
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if c.Models() != 2 {
		t.Fatalf("m0 is referenced by flow 42 and must stay loaded; Models=%d", c.Models())
	}

	// Flow 42 still gets m0's answers (consistency).
	c.QueryModel(42, in, out)
	if out[0] != wantA[0] {
		t.Error("flow 42 switched snapshots mid-flow")
	}

	// A new flow gets m1.
	wantB := make([]int64, 1)
	modB.Program.Infer(in, wantB)
	c.QueryModel(43, in, out)
	if out[0] != wantB[0] {
		t.Error("new flow must be served by the new active snapshot")
	}

	// FIN on flow 42 releases the last reference: m0 unloads.
	c.FlowFinished(42)
	if c.Models() != 1 {
		t.Errorf("m0 must unload at refcount 0; Models=%d", c.Models())
	}
	if c.Stats().Unloads == 0 {
		t.Error("unload must be counted")
	}
}

func TestFlowCacheHitMissCounters(t *testing.T) {
	_, c := newCore(t)
	mod := buildModule(t, smallNet(1), "m0")
	c.RegisterModel(mod)
	in := make([]int64, 4)
	out := make([]int64, 1)
	c.QueryModel(7, in, out)
	c.QueryModel(7, in, out)
	c.QueryModel(8, in, out)
	st := c.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	if c.CachedFlows() != 2 {
		t.Errorf("CachedFlows = %d", c.CachedFlows())
	}
}

func TestFlowCacheDisabled(t *testing.T) {
	_, c := newCore(t)
	mod := buildModule(t, smallNet(1), "m0")
	c.RegisterModel(mod)
	c.SetFlowCache(false)
	in := make([]int64, 4)
	out := make([]int64, 1)
	c.QueryModel(7, in, out)
	if c.CachedFlows() != 0 {
		t.Error("disabled cache must not pin flows")
	}
	// With the cache off, flows follow the active snapshot immediately.
	modB := buildModule(t, smallNet(50), "m1")
	c.RegisterModel(modB)
	c.Activate()
	wantB := make([]int64, 1)
	modB.Program.Infer(in, wantB)
	c.QueryModel(7, in, out)
	if out[0] != wantB[0] {
		t.Error("cache-off flow must use the new active snapshot")
	}
}

func TestFlowCacheSweeper(t *testing.T) {
	eng := netsim.NewEngine()
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 100 * netsim.Millisecond
	c := NewCore(eng, nil, ksim.DefaultCosts(), cfg)
	c.RegisterModel(buildModule(t, smallNet(1), "m0"))
	in := make([]int64, 4)
	out := make([]int64, 1)
	c.QueryModel(5, in, out)
	if c.CachedFlows() != 1 {
		t.Fatal("flow must be cached")
	}
	eng.RunUntil(250 * netsim.Millisecond)
	if c.CachedFlows() != 0 {
		t.Error("idle entry must be swept")
	}
	if c.Stats().SweptEntries == 0 {
		t.Error("sweep must be counted")
	}
	c.StopSweeper()
}

func TestFlowBackendQuery(t *testing.T) {
	_, c := newCore(t)
	net := smallNet(1)
	mod := buildModule(t, net, "m0")
	c.RegisterModel(mod)
	b := NewFlowBackend(c, 9)
	state := []float64{0.2, -0.1, 0.4, 0.8}
	var got float64
	b.Query(state, func(a float64) { got = a })
	want := mod.Program.InferFloat(state)[0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("backend action = %v, snapshot = %v", got, want)
	}
	if got < -1 || got > 1 {
		t.Error("action must be clipped")
	}
	// Without a model, the backend answers neutrally.
	_, empty := newCore(t)
	b2 := NewFlowBackend(empty, 1)
	b2.Query(state, func(a float64) {
		if a != 0 {
			t.Error("no-model backend must reply 0")
		}
	})
}

func TestSampleCodec(t *testing.T) {
	s := Sample{Input: []float64{1, 2, 3}, Aux: []float64{9}, At: 77}
	m := EncodeSample(s)
	got, ok := DecodeSample(m)
	if !ok {
		t.Fatal("decode failed")
	}
	if len(got.Input) != 3 || got.Input[2] != 3 || len(got.Aux) != 1 || got.Aux[0] != 9 || got.At != 77 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Malformed payloads are rejected, not panics.
	for _, bad := range []netlink.Message{
		{Data: nil},
		{Data: []float64{5, 1}},  // claims 5 inputs, has 1
		{Data: []float64{-1, 1}}, // negative length
	} {
		if _, ok := DecodeSample(bad); ok {
			t.Errorf("malformed %v must not decode", bad.Data)
		}
	}
}

// userModel is a complete user implementation of the three interfaces with
// controllable stability.
type userModel struct {
	net       *nn.Network
	stability float64
	adapted   int
}

func (u *userModel) Freeze() *nn.Network          { return u.net }
func (u *userModel) Stability() float64           { return u.stability }
func (u *userModel) Infer(in []float64) []float64 { return u.net.Infer(in) }
func (u *userModel) Adapt(batch []Sample)         { u.adapted++ }

// serviceRig builds a full kernel+userspace rig around a linear-output net
// so fidelity distances are controllable.
type serviceRig struct {
	eng  *netsim.Engine
	cpu  *ksim.CPU
	core *Core
	ch   *netlink.Channel
	user *userModel
	svc  *Service
}

func newServiceRig(t *testing.T) *serviceRig {
	t.Helper()
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	c.RegisterModel(buildModule(t, base, "m0"))
	user := &userModel{net: base.Clone(), stability: 1}
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
	svc := NewSlowPath(c, ch, user, user, user)
	return &serviceRig{eng: eng, cpu: cpu, core: c, ch: ch, user: user, svc: svc}
}

func (r *serviceRig) pushBatch(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		r.ch.Push(EncodeSample(Sample{Input: in, At: r.eng.Now()}))
	}
	r.ch.Flush()
	r.eng.Run()
}

func TestServiceAdaptsOnEveryBatch(t *testing.T) {
	r := newServiceRig(t)
	for i := 0; i < 3; i++ {
		r.pushBatch(10, int64(i))
	}
	if r.user.adapted != 3 {
		t.Errorf("Adapter ran %d times, want 3", r.user.adapted)
	}
	st := r.svc.Stats()
	if st.Batches != 3 || st.Samples != 30 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServiceCorrectnessGateBlocksUnstableModels(t *testing.T) {
	r := newServiceRig(t)
	// Shift the user model so an update WOULD be necessary…
	r.user.net.Layers[1].B[0] += 0.5
	// …but keep the stability metric oscillating wildly.
	vals := []float64{10, 1, 8, 0.5, 12, 2, 9}
	for i, v := range vals {
		r.user.stability = v
		r.pushBatch(8, int64(i))
	}
	if got := r.svc.Stats().Updates; got != 0 {
		t.Errorf("unstable adaptation must not install snapshots, got %d", got)
	}
	if r.svc.Stats().Converged != 0 {
		t.Error("oscillating stability must not pass the correctness gate")
	}
}

func TestServiceNecessityGateSkipsFaithfulSnapshots(t *testing.T) {
	r := newServiceRig(t)
	// User model identical to the kernel snapshot: fidelity ≈ quantization
	// noise ≪ α·(Omax−Omin) = 0.1.
	r.user.stability = 0.5
	for i := 0; i < 8; i++ {
		r.pushBatch(8, int64(i))
	}
	st := r.svc.Stats()
	if st.Converged == 0 || st.FidelityChecks == 0 {
		t.Fatalf("stable adaptation must reach fidelity evaluation: %+v", st)
	}
	if st.Updates != 0 {
		t.Errorf("faithful snapshot must not be replaced, got %d updates", st.Updates)
	}
	if st.SkippedByNecessity == 0 {
		t.Error("necessity skips must be counted")
	}
}

func TestServiceInstallsWhenModelDiverges(t *testing.T) {
	r := newServiceRig(t)
	// Diverge the user model: +0.5 on the linear output bias shifts every
	// output by 0.5 > threshold 0.1.
	r.user.net.Layers[1].B[0] += 0.5
	r.user.stability = 0.5
	var updated *Model
	r.svc.OnUpdate = func(m *Model) { updated = m }
	for i := 0; i < 10 && updated == nil; i++ {
		r.pushBatch(8, int64(i))
	}
	st := r.svc.Stats()
	if st.Updates == 0 || updated == nil {
		t.Fatalf("diverged model must trigger a snapshot install: %+v", st)
	}
	if r.core.Stats().Switches == 0 {
		t.Error("install must switch active/standby roles")
	}
	// The new active snapshot must now match the user model closely.
	in := []float64{0.2, 0.4, 0.6, 0.8}
	kernelOut := r.core.Active().Program().InferFloat(in)[0]
	userOut := r.user.net.Infer(in)[0]
	if math.Abs(kernelOut-userOut) > 0.02 {
		t.Errorf("post-update fidelity gap = %v", math.Abs(kernelOut-userOut))
	}
	// And further batches should now be skipped by necessity again.
	before := r.svc.Stats().Updates
	for i := 0; i < 5; i++ {
		r.pushBatch(8, int64(100+i))
	}
	if r.svc.Stats().Updates != before {
		t.Error("faithful post-update snapshot must not be replaced again")
	}
}

func TestServiceChargesCrossSpaceWork(t *testing.T) {
	r := newServiceRig(t)
	r.user.stability = 0.5
	before := r.cpu.BusyTime(ksim.SoftIRQ)
	for i := 0; i < 8; i++ {
		r.pushBatch(8, int64(i))
	}
	if r.cpu.BusyTime(ksim.SoftIRQ) <= before {
		t.Error("slow path must cost softirq time for flushes and fidelity queries")
	}
}

func BenchmarkQueryModel(b *testing.B) {
	eng := netsim.NewEngine()
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	c := NewCore(eng, nil, ksim.DefaultCosts(), cfg)
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}, 1)
	mod, err := codegen.Build(quant.Quantize(net, quant.DefaultConfig()), "aurora")
	if err != nil {
		b.Fatal(err)
	}
	c.RegisterModel(mod)
	in := make([]int64, 30)
	out := make([]int64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.QueryModel(1, in, out); err != nil {
			b.Fatal(err)
		}
	}
}
