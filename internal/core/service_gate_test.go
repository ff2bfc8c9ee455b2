package core

// Regression tests for the slow-path install pipeline races and silent-loss
// bugs, plus focused coverage of the correctness (converged) and necessity
// (fidelity threshold) gates.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// fillWindow pushes enough faithful batches for the stability history to
// fill, so every subsequent batch reaches the necessity gate.
func fillWindow(r *serviceRig) {
	r.user.stability = 0.5
	for i := 0; i < r.core.Cfg.StabilityWindow+1; i++ {
		r.pushBatch(8, int64(100+i))
	}
}

// TestNoConcurrentFidelityChecks is the regression test for the install-race
// bug: evaluateNecessity only consulted s.installing at entry, but the flag
// was set deep inside the SendToKernel→After callbacks, so two batches
// delivered within one cross-space RTT both passed the check and launched
// concurrent fidelity evaluations — and, with a diverged user model, two
// overlapping installs. The pipeline must be marked busy at schedule time.
func TestNoConcurrentFidelityChecks(t *testing.T) {
	r := newServiceRig(t)
	fillWindow(r)
	st0 := r.svc.Stats()

	// Diverge the user model so the check will want an install, then deliver
	// two batches back-to-back: both flushes happen at the same virtual
	// instant, so both deliveries land inside the first check's RTT window.
	r.user.Layers[1].B[0] += 0.5
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 2; b++ {
		for i := 0; i < 8; i++ {
			in := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			r.ch.Push(EncodeSample(Sample{Input: in, At: r.eng.Now()}))
		}
		r.ch.Flush()
	}
	r.eng.Run()

	st := r.svc.Stats()
	if got := st.FidelityChecks - st0.FidelityChecks; got != 1 {
		t.Errorf("two batches inside one RTT launched %d fidelity checks, want 1", got)
	}
	if got := st.Updates - st0.Updates; got != 1 {
		t.Errorf("two batches inside one RTT produced %d installs, want 1", got)
	}
}

// badFreezer freezes a network whose output dimension disagrees with the
// active snapshot, so RegisterModel rejects the built module.
type badFreezer struct{}

func (badFreezer) Freeze() *nn.Network {
	return nn.New([]int{4, 8, 2}, []nn.Activation{nn.Tanh, nn.Linear}, 3)
}

// TestRejectedInstallCounted is the regression test for the silent-drop bug:
// a RegisterModel failure inside the install callback returned without
// touching any counter, so ServiceStats undercounted losses. It must count
// as abandoned.
func TestRejectedInstallCounted(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	if _, err := c.RegisterModel(buildModule(t, base, "m0")); err != nil {
		t.Fatal(err)
	}
	user := &userModel{Network: base.Clone(), stability: 0.5}
	user.Layers[1].B[0] += 0.5 // diverged: the check wants an install
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
	svc := NewSlowPath(c, ch, badFreezer{}, user, user)
	r := &serviceRig{eng: eng, cpu: cpu, core: c, ch: ch, user: user, svc: svc}

	for i := 0; i < cfg.StabilityWindow+1; i++ {
		r.pushBatch(8, int64(i))
	}
	st := r.svc.Stats()
	if st.Updates != 0 {
		t.Errorf("mismatched module must not install, got %d updates", st.Updates)
	}
	if st.InstallsAbandoned == 0 {
		t.Error("rejected RegisterModel must count as an abandoned install")
	}
	if r.svc.installing {
		t.Error("rejection must release the install pipeline")
	}
}

// TestDegradedInstallParksAndRecovers is the regression test for the
// discarded-module bug: an install whose Activate landed inside a degraded
// window dropped the fully built, already-registered module on the floor.
// The core keeps it parked as standby; the service must activate it on the
// first post-recovery batch rather than rebuilding from scratch.
func TestDegradedInstallParksAndRecovers(t *testing.T) {
	window := 100 * netsim.Millisecond
	r := newWatchdogRig(t, window, nil)
	defer r.core.StopWatchdog()

	r.pushBatch(4) // liveness signal
	r.eng.RunUntil(r.eng.Now() + 5*window)
	if !r.core.Degraded() {
		t.Fatal("watchdog must degrade after slow-path silence")
	}
	pinned := r.core.Active()

	// An install pipeline that was already past its netlink send completes
	// now: RegisterModel parks the standby, Activate is refused.
	r.user.Layers[1].B[0] += 0.5
	r.svc.installing = true // as evaluateNecessity leaves it
	r.svc.tryInstall(0)
	r.eng.RunUntil(r.eng.Now() + 10*netsim.Millisecond)

	st := r.svc.Stats()
	if st.InstallsParked != 1 {
		t.Fatalf("install during degradation must park, got %+v", st)
	}
	if st.InstallsAbandoned != 0 {
		t.Errorf("parked install must not count as abandoned: %+v", st)
	}
	if r.core.Active() != pinned {
		t.Error("degraded core must keep serving the pinned snapshot")
	}
	if r.svc.installing {
		t.Error("parking must release the install pipeline")
	}

	// The next accepted batch recovers the core and activates the parked
	// standby — no rebuild, no re-send.
	r.pushBatch(4)
	if r.core.Degraded() {
		t.Fatal("core must recover once the slow path resumes")
	}
	st = r.svc.Stats()
	if st.Updates != 1 {
		t.Errorf("parked standby must activate on recovery, got %d updates", st.Updates)
	}
	if r.core.Active() == pinned {
		t.Error("recovery must switch to the parked snapshot")
	}
}

// TestParkedStandbyDisplaced: a parked standby that something else switched in
// before the service's catch-up leaves nothing to activate; the lifecycle
// closes as displaced, nothing counts as an update, and the pipeline is free.
func TestParkedStandbyDisplaced(t *testing.T) {
	window := 100 * netsim.Millisecond
	r := newWatchdogRig(t, window, nil)
	defer r.core.StopWatchdog()
	r.pushBatch(4)
	r.eng.RunUntil(r.eng.Now() + 5*window)
	r.user.Layers[1].B[0] += 0.5
	r.svc.installing = true
	r.svc.tryInstall(0)
	r.eng.RunUntil(r.eng.Now() + 10*netsim.Millisecond)
	if r.svc.parked == nil {
		t.Fatal("install on a degraded core must park")
	}
	r.core.NoteSlowPathAlive()
	if err := r.core.Activate(); err != nil {
		t.Fatal(err)
	}
	r.pushBatch(4)
	if st := r.svc.Stats(); st.Updates != 0 || st.InstallsAbandoned != 0 {
		t.Errorf("a displaced standby is neither an update nor an abandoned install: %+v", st)
	}
	if r.svc.parked != nil || r.svc.installing {
		t.Errorf("displaced must settle: parked=%v installing=%v", r.svc.parked != nil, r.svc.installing)
	}
}

// wideEvaluator wraps an Evaluator and appends one extra output element, so
// userspace and kernel output sizes disagree on every fidelity sample.
type wideEvaluator struct{ inner *userModel }

func (w wideEvaluator) Stability() float64 { return w.inner.Stability() }
func (w wideEvaluator) Infer(in []float64) []float64 {
	return append(w.inner.Infer(in), 0)
}

// TestFidelityOutputMismatchSkipped is the regression test for the truncated
// partial-loss bug: the loss loop summed over userOut indices clamped to
// len(kernelOut), so mismatched output sizes produced a prefix loss that was
// acted on as if it were meaningful. Mismatched samples must be skipped — as
// input-size mismatches already are — and counted.
func TestFidelityOutputMismatchSkipped(t *testing.T) {
	eng := netsim.NewEngine()
	cpu := ksim.NewHostCPU(eng, 4)
	cfg := DefaultConfig()
	cfg.FlowCacheTimeout = 0
	c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
	base := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	if _, err := c.RegisterModel(buildModule(t, base, "m0")); err != nil {
		t.Fatal(err)
	}
	user := &userModel{Network: base.Clone(), stability: 0.5}
	user.Layers[1].B[0] += 0.5 // prefix loss would exceed the threshold
	ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
	svc := NewSlowPath(c, ch, user, wideEvaluator{user}, user)
	r := &serviceRig{eng: eng, cpu: cpu, core: c, ch: ch, user: user, svc: svc}

	for i := 0; i < cfg.StabilityWindow+1; i++ {
		r.pushBatch(8, int64(i))
	}
	st := r.svc.Stats()
	if st.FidelityMismatches == 0 {
		t.Error("size-mismatched fidelity samples must be counted")
	}
	if st.Updates != 0 || st.SkippedByNecessity != 0 {
		t.Errorf("a batch of mismatched samples must decide nothing: %+v", st)
	}
	if st.LastFidelity != 0 {
		t.Errorf("truncated partial loss leaked into LastFidelity: %v", st.LastFidelity)
	}
	if r.svc.installing {
		t.Error("an all-mismatched check must release the install pipeline")
	}
}

// batchUser is userModel with the optional block form, counting how each was
// reached.
type batchUser struct {
	*userModel
	width         int // OutputSize; the net's own when 0
	infers, calls int
}

func (u *batchUser) Infer(in []float64) []float64 {
	u.infers++
	return u.userModel.Infer(in)
}

func (u *batchUser) OutputSize() int {
	if u.width != 0 {
		return u.width
	}
	return u.Network.OutputSize()
}

func (u *batchUser) InferBatch(xs [][]float64, ys []float64) {
	u.calls++
	if u.width != 0 {
		return // a deliberately wrong width: nothing the gate may compare
	}
	u.Network.InferBatch(xs, ys)
}

// TestMinFidelityLoss pins the measurement the service and the fleet
// controller share: the minimum is over comparable samples only, a sample of
// the wrong input size costs no inference, an output-size mismatch costs one
// and is counted, an empty pool measures +Inf, the loop allocates its buffers
// once, not per sample — and a user gives the same answer through the plain
// Evaluator and through the block form, whatever the pool size.
func TestMinFidelityLoss(t *testing.T) {
	net := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 11)
	prog := quant.Quantize(net, quant.DefaultConfig())
	user := &userModel{Network: net.Clone()}
	user.Layers[1].B[0] += 0.25
	samples := []Sample{
		{Input: []float64{0.1, 0.2, 0.3, 0.4}},
		{Input: []float64{1, 2, 3}}, // wrong input size
		{Input: []float64{-0.5, 0.5, 0, 1}},
	}
	inferred := 0
	loss, mismatched := MinFidelityLoss(prog, user, samples, func() { inferred++ })
	if math.Abs(loss-0.25) > 0.01 || mismatched != 0 || inferred != 2 {
		t.Errorf("loss %.4f (want ≈ 0.25), mismatched %d (want 0), inferences %d (want 2)", loss, mismatched, inferred)
	}
	loss, mismatched = MinFidelityLoss(prog, wideEvaluator{user}, samples, nil)
	if !math.IsInf(loss, 1) || mismatched != 2 {
		t.Errorf("all outputs mismatched: loss %v (want +Inf), mismatched %d (want 2)", loss, mismatched)
	}

	// Plain against block form over pools around the block size, every fifth
	// sample of the wrong input size. The user model drifts along the first
	// input, so the minimum sits at one particular sample. plain hides the
	// block form the embedded network gives user.
	user.Layers[0].W[0][0] += 0.5
	plain := struct{ Evaluator }{user}
	r := rand.New(rand.NewSource(18))
	pool := make([]Sample, 3*fidelityBlock+5)
	for i := range pool {
		pool[i].Input = make([]float64, 4)
		if i%5 == 4 {
			pool[i].Input = make([]float64, 3)
		}
		for j := range pool[i].Input {
			pool[i].Input[j] = r.Float64()*2 - 1
		}
	}
	for _, n := range []int{0, 1, 4, fidelityBlock - 1, fidelityBlock, fidelityBlock + 1, fidelityBlock + fidelityBlock/4, len(pool)} {
		fits := n - n/5
		plainCharged, batchCharged := 0, 0
		plainLoss, plainMis := MinFidelityLoss(prog, plain, pool[:n], func() { plainCharged++ })
		bu := &batchUser{userModel: user}
		batchLoss, batchMis := MinFidelityLoss(prog, bu, pool[:n], func() { batchCharged++ })
		if math.Float64bits(plainLoss) != math.Float64bits(batchLoss) || plainMis != 0 || batchMis != 0 {
			t.Errorf("%d samples: plain (%v, %d), batch (%v, %d)", n, plainLoss, plainMis, batchLoss, batchMis)
		}
		if math.IsInf(plainLoss, 1) != (fits == 0) {
			t.Errorf("%d samples, %d that fit: loss %v", n, fits, plainLoss)
		}
		if plainCharged != fits || batchCharged != fits {
			t.Errorf("%d samples: beforeInfer ran %d and %d times, want %d", n, plainCharged, batchCharged, fits)
		}
		if wantCalls := (fits + fidelityBlock - 1) / fidelityBlock; bu.infers != 0 || bu.calls != wantCalls {
			t.Errorf("%d samples: %d Infer and %d InferBatch calls, want 0 and %d", n, bu.infers, bu.calls, wantCalls)
		}
		// A block form of the wrong width is a mismatch on every sample that
		// fits, exactly as wideEvaluator's is one by one.
		wide := &batchUser{userModel: user, width: 2}
		wideLoss, wideMis := MinFidelityLoss(prog, wide, pool[:n], nil)
		_, plainWideMis := MinFidelityLoss(prog, wideEvaluator{user}, pool[:n], nil)
		if !math.IsInf(wideLoss, 1) || wideMis != fits || plainWideMis != fits {
			t.Errorf("%d samples, wrong width: loss %v, mismatched %d (block) and %d (plain), want +Inf and %d",
				n, wideLoss, wideMis, plainWideMis, fits)
		}
	}

	many := make([]Sample, 4*fidelityBlock)
	for i := range many {
		many[i] = samples[0]
	}
	fixed := fixedEvaluator{out: 1}
	few := testing.AllocsPerRun(10, func() { MinFidelityLoss(prog, fixed, many[:1], nil) })
	all := testing.AllocsPerRun(10, func() { MinFidelityLoss(prog, fixed, many, nil) })
	if perSample := (all - few) / float64(len(many)-1); perSample > 1 { // fixedEvaluator.Infer's own result
		t.Errorf("%.1f allocations per sample beyond the first, want ≤ 1", perSample)
	}
	bu := &batchUser{userModel: user}
	MinFidelityLoss(prog, bu, many, nil) // the net's inference buffers
	few = testing.AllocsPerRun(10, func() { MinFidelityLoss(prog, bu, many[:1], nil) })
	all = testing.AllocsPerRun(10, func() { MinFidelityLoss(prog, bu, many, nil) })
	if all != few {
		t.Errorf("block form: %v allocations for %d samples, %v for one; the count must not grow", all, len(many), few)
	}
}

// TestParseBatchMatchesParseSample: the batch form accepts, rejects and
// decodes exactly as ParseSample does message by message, and its samples —
// views of one slab — cannot reach each other or the messages.
func TestParseBatchMatchesParseSample(t *testing.T) {
	batch := []netlink.Message{
		EncodeSample(Sample{Input: []float64{1, 2, 3}, Aux: []float64{4, 5}, At: 7}),
		{Data: []float64{5, 1}, At: 8}, // header past the payload
		EncodeSample(Sample{At: 9}),    // no input, no aux
		{At: 10},                       // empty payload
		EncodeSample(Sample{Input: []float64{6}, At: 11}),
		{Data: []float64{1, math.NaN()}, At: 12},
		EncodeSample(Sample{Aux: []float64{7, 8}, At: 13}),
	}
	var want []Sample
	wantMalformed := 0
	for _, m := range batch {
		sm, err := ParseSample(m)
		if err != nil {
			wantMalformed++
			continue
		}
		want = append(want, sm)
	}
	first := Sample{Input: []float64{42}}
	got, malformed := ParseBatch([]Sample{first}, nil, batch)
	if malformed != wantMalformed || len(got) != 1+len(want) || got[0].Input[0] != 42 {
		t.Fatalf("%d samples after the one passed in, %d malformed; want %d and %d", len(got)-1, malformed, len(want), wantMalformed)
	}
	got = got[1:]
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("sample %d: %+v, ParseSample gives %+v", i, got[i], want[i])
		}
		if cap(got[i].Input) != len(got[i].Input) || cap(got[i].Aux) != len(got[i].Aux) {
			t.Errorf("sample %d: views must be capacity-limited, cap %d/%d for len %d/%d",
				i, cap(got[i].Input), cap(got[i].Aux), len(got[i].Input), len(got[i].Aux))
		}
	}
	// An adapter that appends to, or writes through, one sample reaches
	// neither its own aux, nor the next sample, nor the message.
	_ = append(got[0].Input, -1)
	_ = append(got[0].Aux, -2)
	got[0].Input[0] = 99
	if got[0].Aux[0] != 4 || got[2].Input[0] != 6 || batch[0].Data[1] != 1 {
		t.Errorf("a write escaped its sample: aux %v, later input %v, message %v", got[0].Aux, got[2].Input, batch[0].Data)
	}
}

// TestParseSampleCopiesPayload is the regression test for the aliasing bug:
// ParseSample returned Input/Aux slices sharing the netlink message's backing
// array, so a mutating Adapter (or injected corruption of a queued message)
// rewrote history already handed out.
func TestParseSampleCopiesPayload(t *testing.T) {
	msg := EncodeSample(Sample{Input: []float64{1, 2, 3}, Aux: []float64{4, 5}})
	orig := append([]float64(nil), msg.Data...)
	sm, err := ParseSample(msg)
	if err != nil {
		t.Fatal(err)
	}
	sm.Input[0] = 99
	sm.Aux[0] = -99
	for i, v := range msg.Data {
		if v != orig[i] {
			t.Fatalf("mutating a parsed sample changed message data[%d]: %v -> %v",
				i, orig[i], v)
		}
	}
	msg.Data[1] = 77
	if sm.Input[0] != 99 || sm.Input[1] != 2 {
		t.Error("mutating message data changed an already-parsed sample")
	}
}

// TestConvergedWindowShrink covers the correctness gate across a live config
// change: shrinking StabilityWindow must truncate the history to the new
// window, not keep judging against stale entries beyond it.
func TestConvergedWindowShrink(t *testing.T) {
	r := newServiceRig(t)
	r.core.Cfg.StabilityWindow = 4

	feed := func(v float64) bool {
		return r.svc.gate.Converged(v, r.core.Cfg)
	}
	for i := 0; i < 3; i++ {
		if feed(0.5) {
			t.Fatal("gate must not pass before the window fills")
		}
	}
	if !feed(0.5) {
		t.Fatal("four steady values must pass a window of 4")
	}

	// Shrink mid-run: the next value dominates a 2-window that still holds
	// one old 0.5, so the relative range is huge.
	r.core.Cfg.StabilityWindow = 2
	if feed(10) {
		t.Error("window shrink must not pass on a [0.5, 10] history")
	}
	if !feed(10) {
		t.Error("two steady values must pass the shrunken window of 2")
	}
	if n := len(r.svc.gate.hist); n != 2 {
		t.Errorf("history must truncate to the new window, len = %d", n)
	}

	// A window below 1 (a hand-built Config) is a window of 1, through the
	// service as a caller reaches it: each batch converges on its own value,
	// however far from the last.
	for i, w := range []int{0, -3} {
		r.core.Cfg.StabilityWindow = w
		r.user.stability = float64(100 * (i + 1))
		before := r.svc.Stats().Converged
		r.pushBatch(4, int64(i))
		if got := r.svc.Stats().Converged - before; got != 1 {
			t.Errorf("StabilityWindow %d: %d batches converged, want 1", w, got)
		}
	}
}

// TestConvergedZeroScaleBand covers the zero-scale special case: a stability
// metric sitting exactly at zero (e.g. a loss that bottomed out) has no
// relative range to judge, and must count as converged rather than dividing
// by zero.
func TestConvergedZeroScaleBand(t *testing.T) {
	r := newServiceRig(t)
	r.core.Cfg.StabilityWindow = 3
	for i := 0; i < 2; i++ {
		if r.svc.gate.Converged(0, r.core.Cfg) {
			t.Fatal("gate must not pass before the window fills")
		}
	}
	if !r.svc.gate.Converged(0, r.core.Cfg) {
		t.Error("an all-zero stability window must converge")
	}
}

// fixedEvaluator reports a constant stability and a constant inference
// output, giving the necessity test exact control over the fidelity loss.
type fixedEvaluator struct{ out float64 }

func (f fixedEvaluator) Stability() float64           { return 0.5 }
func (f fixedEvaluator) Infer(in []float64) []float64 { return []float64{f.out} }

// TestNecessityThresholdBoundary tables the necessity decision around
// minLoss == α·(Omax−Omin) exactly. The kernel model is an all-zero network,
// whose quantized output is exactly 0.0, so minLoss equals the evaluator's
// constant |out| with no quantization noise; with the default α = 0.05 and
// output range [−1, 1] the threshold is exactly 0.1 in IEEE arithmetic.
func TestNecessityThresholdBoundary(t *testing.T) {
	threshold := 0.05 * (1.0 - (-1.0)) // exact: 0.1
	cases := []struct {
		name    string
		loss    float64
		install bool
	}{
		{"zero", 0, false},
		{"just_below", threshold - 1e-9, false},
		{"exactly_at", threshold, false}, // the gate is strict: > not >=
		{"just_above", math.Nextafter(threshold, 2), true},
		{"well_above", 0.5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := netsim.NewEngine()
			cpu := ksim.NewHostCPU(eng, 4)
			cfg := DefaultConfig()
			cfg.FlowCacheTimeout = 0
			cfg.StabilityWindow = 1
			c := NewCore(eng, cpu, ksim.DefaultCosts(), cfg)
			zero := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1)
			for _, l := range zero.Layers {
				for i := range l.W {
					for j := range l.W[i] {
						l.W[i][j] = 0
					}
					l.B[i] = 0
				}
			}
			if _, err := c.RegisterModel(buildModule(t, zero, "zero")); err != nil {
				t.Fatal(err)
			}
			user := &userModel{Network: zero, stability: 0.5}
			ch := netlink.NewChannel(eng, cpu, ksim.DefaultCosts(), nil)
			svc := NewSlowPath(c, ch, user, fixedEvaluator{tc.loss}, user)
			r := &serviceRig{eng: eng, cpu: cpu, core: c, ch: ch, user: user, svc: svc}
			r.pushBatch(4, 1)

			st := svc.Stats()
			wantUpdates, wantSkips := int64(0), int64(1)
			if tc.install {
				wantUpdates, wantSkips = 1, 0
			}
			if st.Updates != wantUpdates || st.SkippedByNecessity != wantSkips {
				t.Errorf("loss %v vs threshold %v: updates=%d skips=%d, want %d/%d",
					tc.loss, threshold, st.Updates, st.SkippedByNecessity, wantUpdates, wantSkips)
			}
			if st.LastFidelity != tc.loss {
				t.Errorf("LastFidelity = %v, want exact %v", st.LastFidelity, tc.loss)
			}
		})
	}
}
