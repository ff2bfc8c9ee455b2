package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

func randInputs(r *rand.Rand, n, dim int, scale float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = (r.Float64()*2 - 1) * scale
		}
	}
	return out
}

func TestQuantizeMatchesFloatCloselyAurora(t *testing.T) {
	// The Aurora architecture with tanh activations — the hardest case for
	// integer quantization because of the LUTs.
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 11)
	p := Quantize(net, DefaultConfig())
	r := rand.New(rand.NewSource(1))
	loss := AccuracyLoss(net, p, randInputs(r, 200, 30, 1))
	if loss > 0.02 {
		t.Errorf("accuracy loss = %.4f, want ≤ 0.02 (the paper's ~2%%)", loss)
	}
}

func TestQuantizeReLUAndSigmoid(t *testing.T) {
	net := nn.New([]int{8, 12, 4}, []nn.Activation{nn.ReLU, nn.Sigmoid}, 5)
	p := Quantize(net, DefaultConfig())
	r := rand.New(rand.NewSource(2))
	loss := AccuracyLoss(net, p, randInputs(r, 200, 8, 1))
	if loss > 0.02 {
		t.Errorf("accuracy loss = %.4f, want ≤ 0.02", loss)
	}
}

func TestOutputScaleControlsGranularity(t *testing.T) {
	// With OutputScale 1 a [0,1] sigmoid output collapses to {0,1} — the
	// paper's motivating failure. Scaling to 1000 fixes it.
	net := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, 3)
	r := rand.New(rand.NewSource(3))
	inputs := randInputs(r, 300, 4, 1)

	coarse := DefaultConfig()
	coarse.OutputScale = 1
	lossCoarse := AccuracyLoss(net, Quantize(net, coarse), inputs)

	fine := DefaultConfig() // C = 1000
	lossFine := AccuracyLoss(net, Quantize(net, fine), inputs)

	if lossFine >= lossCoarse {
		t.Errorf("scaling layer must reduce loss: C=1 loss %.4f, C=1000 loss %.4f", lossCoarse, lossFine)
	}
	if lossFine > 0.02 {
		t.Errorf("C=1000 loss = %.4f, want ≤ 2%%", lossFine)
	}
	// And the coarse output really is binary.
	qo := make([]int64, 1)
	prog := Quantize(net, coarse)
	for _, in := range inputs[:50] {
		prog.Infer(prog.QuantizeInput(in, nil), qo)
		if qo[0] != 0 && qo[0] != 1 {
			t.Fatalf("C=1 sigmoid output = %d, expected collapse to {0,1}", qo[0])
		}
	}
}

func TestInferIsDeterministic(t *testing.T) {
	net := nn.New([]int{6, 10, 2}, []nn.Activation{nn.Tanh, nn.Linear}, 9)
	p := Quantize(net, DefaultConfig())
	in := p.QuantizeInput([]float64{0.1, -0.2, 0.3, 0.5, -0.9, 0.7}, nil)
	a, b := make([]int64, 2), make([]int64, 2)
	p.Infer(in, a)
	p.Infer(in, b)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("repeated inference must be bit-identical")
	}
}

func TestInferSizePanics(t *testing.T) {
	net := nn.New([]int{2, 2}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	for _, fn := range []func(){
		func() { p.Infer(make([]int64, 1), make([]int64, 2)) },
		func() { p.Infer(make([]int64, 2), make([]int64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("size mismatch must panic")
				}
			}()
			fn()
		}()
	}
}

// TestConfigValidation: Quantize takes C from 1 to MaxOutputScale and
// panics outside, where some product inference forms could pass 63 bits.
func TestConfigValidation(t *testing.T) {
	tanh := nn.New([]int{2, 2, 2}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	for _, c := range []int64{0, -1, MaxOutputScale + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("C = %d: Quantize must panic", c)
				}
			}()
			Quantize(tanh, Config{OutputScale: c})
		}()
	}
	for _, c := range []int64{1, MaxOutputScale} {
		Quantize(tanh, Config{OutputScale: c})
	}
}

func TestRescaleRounding(t *testing.T) {
	const unit = AccScale >> 12 // one unit at scale 2¹²
	cases := []struct {
		v, to, want int64
	}{
		{AccScale, 1000, 1000},
		{AccScale / 2, 1000, 500},
		{15*unit + unit*2/5, 1 << 12, 15}, // 15.4 rounds to 15
		{15*unit + unit*3/5, 1 << 12, 16}, // 15.6 rounds to 16
		{15*unit + unit/2, 1 << 12, 16},   // halves round away from zero
		{-15*unit - unit*2/5, 1 << 12, -15},
		{-15*unit - unit*3/5, 1 << 12, -16},
		{-15*unit - unit/2, 1 << 12, -16},
		{7, AccScale, 7}, // same scale short-circuits
		// 40,000 units at C = 2²⁴−1: v·to passes 2⁶³.
		{40_000 * AccScale, MaxOutputScale - 1, 671_088_600_000},
		{-40_000 * AccScale, MaxOutputScale - 1, -671_088_600_000},
	}
	for _, c := range cases {
		if got := rescale(c.v, c.to); got != c.want {
			t.Errorf("rescale(%d, %d) = %d, want %d", c.v, c.to, got, c.want)
		}
	}
	// Every int64 against the exact oracle, at the extremes and around the
	// rounding half, for the scales inference uses and the largest C.
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, -AccScale / 2, AccScale/2 - 1, 3*AccScale + AccScale/2, -1, 0} {
		for _, to := range []int64{1, actScale, 1000, MaxOutputScale - 1, MaxOutputScale} {
			if got, want := rescale(v, to), exactRescale(v, to); got != want {
				t.Errorf("rescale(%d, %d) = %d, want %d", v, to, got, want)
			}
		}
	}
	// The 40,000-unit row through Program.Infer: a 1→1 linear net of weight
	// 1 at C = 2²⁴−1.
	net := nn.New([]int{1, 1}, []nn.Activation{nn.Linear}, 1)
	net.Layers[0].W[0][0], net.Layers[0].B[0] = 1, 0
	p := Quantize(net, Config{OutputScale: MaxOutputScale - 1})
	out := make([]int64, 1)
	if p.Infer(p.QuantizeInput([]float64{40_000}, nil), out); out[0] != 671_088_600_000 {
		t.Errorf("Infer = %d, want 671088600000", out[0])
	}
}

func TestLookupTableAccuracy(t *testing.T) {
	// Direct LUT check: a 1-layer tanh net with identity weight.
	net := nn.New([]int{1, 1}, []nn.Activation{nn.Tanh}, 1)
	net.Layers[0].W[0][0] = 1
	net.Layers[0].B[0] = 0
	cfg := DefaultConfig()
	cfg.OutputScale = 1 << 16
	p := Quantize(net, cfg)
	for x := -10.0; x <= 10.0; x += 0.37 {
		got := p.InferFloat([]float64{x})[0]
		want := math.Tanh(x)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("tanh(%v): LUT=%v float=%v", x, got, want)
		}
	}
}

func TestLookupClampsOutsideRange(t *testing.T) {
	net := nn.New([]int{1, 1}, []nn.Activation{nn.Sigmoid}, 1)
	net.Layers[0].W[0][0] = 1
	net.Layers[0].B[0] = 0
	p := Quantize(net, DefaultConfig())
	hi := p.InferFloat([]float64{50})[0]
	lo := p.InferFloat([]float64{-50})[0]
	if math.Abs(hi-1) > 1e-3 || math.Abs(lo) > 1e-3 {
		t.Errorf("saturated sigmoid = %v / %v, want ≈ 1 / 0", hi, lo)
	}
}

func TestQuantizeInputDequantizeRoundTrip(t *testing.T) {
	net := nn.New([]int{3, 1}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	in := []float64{0.125, -0.5, 0.75}
	q := p.QuantizeInput(in, nil)
	for i := range in {
		back := float64(q[i]) / InputScale
		if math.Abs(back-in[i]) > 1.0/InputScale {
			t.Errorf("round trip %v -> %v", in[i], back)
		}
	}
	// dst reuse path.
	dst := make([]int64, 3)
	if got := p.QuantizeInput(in, dst); &got[0] != &dst[0] {
		t.Error("QuantizeInput must reuse provided buffer")
	}
}

func TestMACsAndParams(t *testing.T) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	if p.MACs() != net.MACs() {
		t.Errorf("MACs = %d, want %d", p.MACs(), net.MACs())
	}
	params := 0
	for _, l := range net.Layers {
		for _, row := range l.W {
			params += len(row)
		}
		params += len(l.B)
	}
	if p.NumParams() != params {
		t.Errorf("NumParams = %d, want %d", p.NumParams(), params)
	}
}

func TestAccuracyLossEmptyInputs(t *testing.T) {
	net := nn.New([]int{2, 1}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	if AccuracyLoss(net, p, nil) != 0 {
		t.Error("no inputs must yield 0 loss")
	}
}

// Property: increasing OutputScale never makes accuracy (much) worse across
// random small networks.
func TestScalingMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := nn.New([]int{4, 6, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, seed)
		inputs := randInputs(r, 60, 4, 1)
		cfg := DefaultConfig()
		cfg.OutputScale = 10
		low := AccuracyLoss(net, Quantize(net, cfg), inputs)
		cfg.OutputScale = 10000
		high := AccuracyLoss(net, Quantize(net, cfg), inputs)
		return high <= low+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInferNoAlloc(t *testing.T) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	in := make([]int64, 30)
	out := make([]int64, 1)
	allocs := testing.AllocsPerRun(100, func() { p.Infer(in, out) })
	if allocs != 0 {
		t.Errorf("Infer allocates %v times, want 0 (kernel fast path)", allocs)
	}
}

// benchInfer times Program.Infer on a zoo architecture over seeded inputs in
// the operating range, so accumulators land across the tables' interpolated
// part as they do behind a live datapath, and reports the kernel's unit cost.
func benchInfer(b *testing.B, sizes []int, acts []nn.Activation) {
	benchProgram(b, Quantize(nn.New(sizes, acts, 1), DefaultConfig()))
}

func benchProgram(b *testing.B, p *Program) {
	r := rand.New(rand.NewSource(1))
	ins := make([][]int64, 64)
	for i := range ins {
		ins[i] = p.QuantizeInput(randomInput(r, p.InputSize()), nil)
	}
	out := make([]int64, p.OutputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Infer(ins[i%len(ins)], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.MACs()), "ns/MAC")
}

var tanhHead = []nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}

func BenchmarkInferAuroraSnapshot(b *testing.B) { benchInfer(b, []int{30, 32, 16, 1}, tanhHead) }

// BenchmarkInferCanarySnapshot is the fleet canary's shape (fig_canary.go's
// bloat): 4→2048 tanh, then a 2048-wide linear head, here with nn.New's
// random head, whose row sums |w| past 2¹⁶: the head runs dot4.
func BenchmarkInferCanarySnapshot(b *testing.B) {
	benchInfer(b, []int{4, 2048, 1}, []nn.Activation{nn.Tanh, nn.Linear})
}

// BenchmarkInferCanaryBloatSnapshot is the canary as bloat builds it: the
// head keeps 16 weights of a base net and zeros the other 2032, so both
// layers run on the packed tier.
func BenchmarkInferCanaryBloatSnapshot(b *testing.B) {
	net := nn.New([]int{4, 2048, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1)
	clear(net.Layers[1].W[0][16:])
	benchProgram(b, Quantize(net, DefaultConfig()))
}

// BenchmarkInferAuroraSnapshotWide is BenchmarkInferAuroraSnapshot on dot4:
// a write outside int16, then one restoring the weight, takes every layer
// off the packed tier with the weights it had, so only the kernel differs.
func BenchmarkInferAuroraSnapshotWide(b *testing.B) {
	p := Quantize(nn.New([]int{30, 32, 16, 1}, tanhHead, 1), DefaultConfig())
	for _, l := range p.Layers {
		w := l.Weight(0, 0)
		l.SetWeight(0, 0, 1<<40)
		l.SetWeight(0, 0, w)
	}
	benchProgram(b, p)
}

func BenchmarkInferMOCCSnapshot(b *testing.B) { benchInfer(b, []int{30, 64, 32, 1}, tanhHead) }

func BenchmarkInferFFNNSnapshot(b *testing.B) {
	benchInfer(b, []int{4, 5, 5, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Linear})
}

// BenchmarkLookup times the LUT pass alone on a hidden tanh layer
// (lookupShift's arm on AVX2) over accumulators drawn inside the table
// range: 32 of them, Aurora's first hidden width, and 2,048, the fleet
// canary's. Each pass first copies the accumulators back in, and the time
// per lane counts that copy.
func BenchmarkLookup(b *testing.B) {
	l := lutLayer(nn.Tanh, actScale)
	for _, c := range []struct {
		name  string
		lanes int
	}{{"aurora-32", 32}, {"canary-2048", 2048}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			accs := make([]int64, c.lanes)
			for i := range accs {
				accs[i] = tblMin + r.Int63n(tblMax-tblMin+1)
			}
			v := make([]int64, c.lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(v, accs)
				l.lookup(v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.lanes), "ns/lane")
		})
	}
}

// freshTable computes an activation LUT straight from its definition, without
// the memo.
func freshTable(k tableKey) []int64 {
	t := make([]int64, tableSize)
	for i := range t {
		x := -tableRange + 2*tableRange*float64(i)/(tableSize-1)
		t[i] = int64(math.Round(k.act.Apply(x) * float64(k.outScale)))
	}
	return t
}

// TestSharedTablesEqualFreshOnes: the memo is invisible. For every table key
// the model zoo's activation patterns produce under fig7's sweep of C, the
// shared table equals a freshly computed one element for element, and two
// Programs quantized under one Config share one backing array.
func TestSharedTablesEqualFreshOnes(t *testing.T) {
	zoo := [][]nn.Activation{
		{nn.Tanh, nn.Tanh, nn.Tanh},      // Aurora, MOCC
		{nn.Tanh, nn.Tanh, nn.Sigmoid},   // the α heads
		{nn.ReLU, nn.ReLU, nn.Linear},    // FFNN, LB MLP: no table
		{nn.Sigmoid, nn.ReLU, nn.Linear}, // sigmoid at the hidden scale
	}
	for _, c := range []int64{1, 10, 100, 1000, 10000} {
		cfg := DefaultConfig()
		cfg.OutputScale = c
		for zi, acts := range zoo {
			p := Quantize(nn.New([]int{6, 5, 4, 1}, acts, 1), cfg)
			q := Quantize(nn.New([]int{6, 5, 4, 1}, acts, 2), cfg)
			for li, l := range p.Layers {
				if l.Act != nn.Tanh && l.Act != nn.Sigmoid {
					if l.table != nil {
						t.Errorf("C=%d zoo %d layer %d: %v layer has a table", c, zi, li, l.Act)
					}
					continue
				}
				want := freshTable(tableKey{l.Act, l.outScale})
				if !slices.Equal(l.table, want) {
					t.Errorf("C=%d zoo %d layer %d: shared %v table differs from a fresh one", c, zi, li, l.Act)
				}
				if &l.table[0] != &q.Layers[li].table[0] {
					t.Errorf("C=%d zoo %d layer %d: two Programs under one Config do not share the table", c, zi, li)
				}
			}
		}
	}
}

// TestTableMemoCap: with the memo full a table is computed for its Program
// alone — still correct and padded, not stored, not shared.
func TestTableMemoCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutputScale = 31337 // a key no other test quantizes under
	net := nn.New([]int{3, 1}, []nn.Activation{nn.Sigmoid}, 1)

	tableMemo.Lock()
	saved := tableMemo.entries
	tableMemo.entries = maxMemoEntries
	tableMemo.Unlock()
	p, q := Quantize(net, cfg), Quantize(net, cfg)
	tableMemo.Lock()
	tableMemo.entries = saved
	l := p.Layers[0]
	key := tableKey{l.Act, l.outScale}
	_, stored := tableMemo.m[key]
	tableMemo.Unlock()

	if stored {
		t.Error("a table past the cap must not be stored")
	}
	if &l.table[0] == &q.Layers[0].table[0] {
		t.Error("tables past the cap must not be shared")
	}
	if !slices.Equal(l.table, freshTable(key)) || !slices.Equal(q.Layers[0].table, freshTable(key)) {
		t.Error("table computed past the cap is wrong")
	}
	if padded := l.table[:tableSize+1]; padded[tableSize] != padded[tableSize-1] {
		t.Error("a table computed past the cap has no copy of its last entry past it, which lookup reads at tblMax")
	}
}

// TestActIDSeparatesWhatDiffers: equal IDs must mean equal activation
// behaviour, so every input of the table key shows up in the ID: the
// activation and the output scale, C for the last layer.
func TestActIDSeparatesWhatDiffers(t *testing.T) {
	tanh := nn.New([]int{2, 2, 1}, []nn.Activation{nn.Tanh, nn.Tanh}, 1)
	sigmoid := nn.New([]int{2, 2, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, 1)
	p := Quantize(tanh, DefaultConfig())
	q := Quantize(tanh, Config{OutputScale: 10})
	s := Quantize(sigmoid, DefaultConfig())
	ids := []string{p.Layers[1].ActID(), q.Layers[1].ActID(), s.Layers[1].ActID()}
	if ids[0] == ids[1] || ids[0] == ids[2] || ids[1] == ids[2] {
		t.Errorf("C or the activation changed and an ActID did not: %q", ids)
	}
	for _, c := range []struct{ got, want string }{
		{p.Layers[0].ActID(), "tanh_a16777216_o4096_n4096_r8"},
		{p.Layers[1].ActID(), "tanh_a16777216_o1000_n4096_r8"},
		{Quantize(nn.New([]int{2, 1}, []nn.Activation{nn.ReLU}, 1), DefaultConfig()).Layers[0].ActID(), "relu_a16777216_o1000"},
	} {
		if c.got != c.want {
			t.Errorf("ActID = %q, want %q", c.got, c.want)
		}
	}
}
