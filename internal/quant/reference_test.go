package quant

// The oracle for the inference kernel: the row-at-a-time loop with a
// per-neuron activation switch and a dividing LUT that Program.Infer ran
// before it was blocked, kept here so the kernel is checked bit for bit
// against the plainest statement of what it computes.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// referenceInfer computes p's output for in with no blocking, no packed
// multiply and no shift: Weight(i, j) row by row, one activation per neuron.
func referenceInfer(p *Program, in []int64) []int64 {
	cur := in
	for _, l := range p.Layers {
		dst := make([]int64, l.Out)
		for i := 0; i < l.Out; i++ {
			acc := l.B[i]
			for j := 0; j < l.In; j++ {
				acc += l.Weight(i, j) * cur[j]
			}
			dst[i] = referenceActivate(l, acc)
		}
		cur = dst
	}
	return cur
}

func referenceActivate(l *Layer, acc int64) int64 {
	switch l.Act {
	case nn.ReLU:
		if acc < 0 {
			return 0
		}
		return exactRescale(acc, l.outScale)
	case nn.Tanh, nn.Sigmoid:
		return referenceLookup(l, acc)
	default:
		return exactRescale(acc, l.outScale)
	}
}

// exactRescale is what rescale must return, in arbitrary precision: v·to /
// AccScale rounded half away from zero.
func exactRescale(v, to int64) int64 {
	n := new(big.Int).Mul(big.NewInt(v), big.NewInt(to))
	neg := n.Sign() < 0
	n.Abs(n).Add(n, big.NewInt(AccScale/2)).Quo(n, big.NewInt(AccScale))
	if neg {
		n.Neg(n)
	}
	if !n.IsInt64() {
		panic(fmt.Sprintf("rescale(%d, %d) = %v does not fit in int64", v, to, n))
	}
	return n.Int64()
}

func referenceLookup(l *Layer, acc int64) int64 {
	if acc <= tblMin {
		return l.table[0]
	}
	if acc >= tblMax {
		return l.table[len(l.table)-1]
	}
	span := int64(tblMax - tblMin)
	num := (acc - tblMin) * int64(len(l.table)-1)
	idx := num / span
	rem := num % span
	lo := l.table[idx]
	hi := l.table[idx+1]
	return lo + (hi-lo)*rem/span
}

// lutLayer is a bare tanh or sigmoid layer with the shared table at outScale.
func lutLayer(act nn.Activation, outScale int64) *Layer {
	return &Layer{Act: act, outScale: outScale, table: sharedTable(tableKey{act, outScale})}
}

// checkAgainstReference runs in through Infer and InferWith (fresh arena) and
// requires both to equal referenceInfer.
func checkAgainstReference(t *testing.T, p *Program, in []int64, what string) {
	t.Helper()
	want := referenceInfer(p, in)
	got := make([]int64, p.OutputSize())
	p.Infer(in, got)
	if !slices.Equal(got, want) {
		t.Errorf("%s: Infer = %v, reference = %v", what, got, want)
	}
	clear(got)
	p.InferWith(&Arena{}, in, got)
	if !slices.Equal(got, want) {
		t.Errorf("%s: InferWith = %v, reference = %v", what, got, want)
	}
}

// TestKernelMatchesReference sweeps the shapes that decide which kernel loops
// run — every Out%4, fewer than four rows, In down to 1 — across all four
// activations and inputs that are random, zero and far outside the table
// range.
func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, act := range []nn.Activation{nn.Linear, nn.ReLU, nn.Tanh, nn.Sigmoid} {
		for _, in := range []int{1, 3, 30} {
			for _, out := range []int{1, 2, 3, 4, 5, 7, 16, 33} {
				// The layer under test feeds a second one, so its outputs
				// are consumed at the hidden scale and at the output scale.
				net := nn.New([]int{in, out, out}, []nn.Activation{act, act}, r.Int63())
				p := Quantize(net, DefaultConfig())
				what := fmt.Sprintf("%v %d-%d-%d", act, in, out, out)
				x := make([]int64, in)
				checkAgainstReference(t, p, x, what+" zero")
				for trial := 0; trial < 4; trial++ {
					p.QuantizeInput(randomInput(r, in), x)
					checkAgainstReference(t, p, x, what+" random")
				}
				for j := range x {
					x[j] = (200*r.Int63n(2) - 100) * InputScale
				}
				checkAgainstReference(t, p, x, what+" saturating")
			}
		}
	}
}

// TestLookupMatchesReference walks lookup over every table segment — each
// segment's first accumulator, its neighbours and one drawn inside it — and
// the clamps, on the hidden layers' tanh table, on sigmoid at C = 1000 and at
// MaxOutputScale, and on a falling table: the only way the interpolation
// numerator goes negative, which the shift must round toward zero as the
// reference's divide does. lookup reads one entry past the table at tblMax,
// so every table, the falling one too, is built with that entry, and
// TableData still returns tableSize.
func TestLookupMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for name, l := range map[string]*Layer{
		"tanh hidden":   lutLayer(nn.Tanh, actScale),
		"sigmoid C":     lutLayer(nn.Sigmoid, 1000),
		"sigmoid max C": lutLayer(nn.Sigmoid, MaxOutputScale),
		"falling":       fallingLayer(),
	} {
		if tbl, _, _ := l.TableData(); len(tbl) != tableSize || cap(tbl) <= tableSize || tbl[:tableSize+1][tableSize] != tbl[tableSize-1] {
			t.Errorf("%s: TableData has %d entries (want %d), capacity %d, no copy of the last past them", name, len(tbl), tableSize, cap(tbl))
		}
		accs := []int64{tblMin - 1, tblMax, tblMax + 1, 1 << 62, -1 << 62}
		const last = tableSize - 1
		for i := int64(0); i < last; i++ {
			start := tblMin + (i*(tblMax-tblMin)+last-1)/last // first acc of segment i
			accs = append(accs, start-1, start, start+1, start+r.Int63n((tblMax-tblMin)/last))
		}
		var want []int64
		for _, acc := range accs {
			want = append(want, referenceLookup(l, acc))
		}
		got := slices.Clone(accs)
		l.lookup(got)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: lookup(%d) = %d, reference = %d", name, accs[i], got[i], want[i])
				break
			}
		}
	}
}

// fallingLayer is the hidden layers' tanh layer with its table reversed and
// padded again: the only way the interpolation numerator goes negative.
func fallingLayer() *Layer {
	l := lutLayer(nn.Tanh, actScale)
	rev := slices.Clone(l.table[:tableSize+1])
	slices.Reverse(rev[:tableSize])
	rev[tableSize] = rev[tableSize-1]
	l.table = rev[:tableSize]
	return l
}

// TestWeightRowsViewTheSlab: SetWeight writes the slab the kernel reads, and
// its int16 copy while the layer is on the packed tier, so a weight written
// is the weight inferred with. A write outside int16, or one that takes its
// row's Σ|w| to 2¹⁶, takes its layer off the tier for good, and an input
// outside int16 keeps its step off dense16; on each trigger the output still
// equals the reference.
func TestWeightRowsViewTheSlab(t *testing.T) {
	net := nn.New([]int{6, 8, 4}, []nn.Activation{nn.Linear, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	for li, l := range p.Layers {
		if len(l.w) != l.In*l.Out || len(l.w16) != stride16(l.In)*l.Out {
			t.Fatalf("layer %d: slabs hold %d and %d weights (want %d and %d)", li, len(l.w), len(l.w16), l.In*l.Out, stride16(l.In)*l.Out)
		}
	}
	in := p.QuantizeInput([]float64{0.5, -0.25, 1, 0.125, 0.75, -1}, nil)
	l0, l1 := p.Layers[0], p.Layers[1]
	l0.SetWeight(4, 1, l0.Weight(4, 1)+1<<10)
	l1.SetWeight(1, 7, l1.Weight(1, 7)-1<<10)
	if l0.w[4*l0.In+1] != l0.Weight(4, 1) || l1.w[1*l1.In+7] != l1.Weight(1, 7) {
		t.Fatal("SetWeight did not write the slab at row·In + column")
	}
	if l0.w16 == nil || l1.w16 == nil {
		t.Fatal("a write inside the row bound took a layer off the packed tier")
	}
	if int64(l0.w16[4*16+1]) != l0.Weight(4, 1) || int64(l1.w16[1*16+7]) != l1.Weight(1, 7) {
		t.Fatal("SetWeight did not write the int16 slab at row·16 + column")
	}
	checkAgainstReference(t, p, in, "after SetWeight inside the row bound")

	l0.SetWeight(2, 0, 1<<15)
	if l0.w16 != nil || l1.w16 == nil {
		t.Fatalf("after writing 2¹⁵ into layer 0: on the tier = %v, %v; want false, true", l0.w16 != nil, l1.w16 != nil)
	}
	checkAgainstReference(t, p, in, "weight outside int16")
	l0.SetWeight(2, 0, 1)
	if l0.w16 != nil {
		t.Error("a write inside int16 put the layer back on the tier")
	}

	for j := 0; j < l1.In; j++ {
		l1.SetWeight(3, j, 0)
	}
	l1.SetWeight(3, 0, -1<<15)
	l1.SetWeight(3, 5, 1<<15-1)
	if l1.w16 == nil {
		t.Fatal("a row of Σ|w| = 2¹⁶−1 took its layer off the tier")
	}
	checkAgainstReference(t, p, in, "row at Σ|w| = 2¹⁶−1")
	l1.SetWeight(3, 2, 1)
	if l1.w16 != nil {
		t.Fatal("a row of Σ|w| = 2¹⁶ kept its layer on the tier")
	}
	checkAgainstReference(t, p, in, "row at Σ|w| = 2¹⁶")

	q := Quantize(net, DefaultConfig())
	for _, v := range []int64{1 << 15, -1<<15 - 1, 1 << 32, math.MaxInt32} {
		big := slices.Clone(in)
		big[5] = v
		checkAgainstReference(t, q, big, fmt.Sprintf("input %d", v))
	}
}

// TestFloatVsQuantizedZoo executes both sides of the paper's central
// equivalence (ROADMAP item 4b): the float network and its integer Program,
// over the evaluated architectures at the scaling factors of Figure 7. The
// envelope per C is the figure's shape — each decade of C buys a decade of
// loss, and from C = 100 on it is far under the paper's ~2% — set about a
// third above the worst series of the committed fig7 run (FFNN: 0.042,
// 0.0041, 0.00051), which these untrained nets land beside.
func TestFloatVsQuantizedZoo(t *testing.T) {
	zoo := []struct {
		name  string
		sizes []int
		acts  []nn.Activation
		input func(*rand.Rand) []float64
	}{
		{"Aurora", []int{30, 32, 16, 1}, tanhHead, miState},
		{"MOCC", []int{30, 64, 32, 1}, tanhHead, miState},
		{"FFNN", []int{4, 5, 5, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Linear}, flowFeatures},
	}
	envelope := map[int64]float64{10: 0.06, 100: 0.006, 1000: 0.001}
	for _, m := range zoo {
		r := rand.New(rand.NewSource(4))
		net := nn.New(m.sizes, m.acts, 4)
		if m.name == "FFNN" {
			for _, l := range net.Layers[:2] { // sched.NewFFNN's live-ReLU biases
				for i := range l.B {
					l.B[i] = 0.1
				}
			}
		}
		inputs := make([][]float64, 256)
		for i := range inputs {
			inputs[i] = m.input(r)
		}
		prev := math.Inf(1)
		for _, c := range []int64{10, 100, 1000} {
			cfg := DefaultConfig()
			cfg.OutputScale = c
			loss := AccuracyLoss(net, Quantize(net, cfg), inputs)
			if loss > envelope[c] {
				t.Errorf("%s C=%d: accuracy loss %.5f exceeds the Fig 7 envelope %g", m.name, c, loss, envelope[c])
			}
			if loss > prev {
				t.Errorf("%s C=%d: loss %.5f rose from %.5f at the smaller C", m.name, c, loss, prev)
			}
			prev = loss
		}
	}
}

// miState draws a monitor-interval state the way cc.RandomState does: ten
// (latency gradient, latency ratio, send ratio) triples, mostly calm with
// occasional congestion excursions.
func miState(r *rand.Rand) []float64 {
	s := make([]float64, 30)
	for t := 0; t < 10; t++ {
		s[3*t] = math.Max(-1, math.Min(1, r.NormFloat64()*0.2))
		s[3*t+1] = math.Min(5, math.Abs(r.NormFloat64())*0.6)
		if r.Float64() < 0.25 {
			s[3*t+2] = math.Min(5, math.Abs(r.NormFloat64())*1.2)
		}
	}
	return s
}

// flowFeatures draws the FFNN's four normalised flow-metadata features.
func flowFeatures(r *rand.Rand) []float64 {
	return []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
}

// referenceDense is one layer's accumulators for x by the plain loop.
func referenceDense(l *Layer, x []int64) []int64 {
	acc := make([]int64, l.Out)
	for i := range acc {
		acc[i] = l.B[i]
		for j := 0; j < l.In; j++ {
			acc[i] += l.Weight(i, j) * x[j]
		}
	}
	return acc
}

// randomBiases gives every row of l an odd bias within half a unit of the
// accumulator scale, so a bias dropped or added twice shows in the
// accumulators (nn.New's are all zero).
func randomBiases(r *rand.Rand, l *Layer) {
	for i := range l.B {
		l.B[i] = (r.Int63n(AccScale) - AccScale/2) | 1
	}
}

// fitsInt16 reports whether every x is an int16 widened.
func fitsInt16(x []int64) bool {
	for _, v := range x {
		if v != int64(int16(v)) {
			return false
		}
	}
	return true
}

// TestEveryDenseTierMatchesReference forces each dense tier in turn on every
// step of one input set and compares the accumulators with the plain loop,
// bit for bit: dense16 by calling it (AVX2 hosts; it must take exactly the
// steps whose inputs fit in int16), and dot4 with the row loop by running
// dense on a copy of the layer taken off the packed tier. The programs are
// the zoo — Aurora, MOCC, FFNN, and the fleet canary's 4→2048→1 as
// fig_canary.go bloats it and with a random head — on their own inputs, and
// single layers of every In%16 (In 1–17 and 33) and Out%4
// (Out 1–8) whose first row sits at Σ|w| = 2¹⁶−1 (on the tier) or 2¹⁶ (off
// it), fed the int16 edges ±(2¹⁵−1) and −2¹⁵ and a 2³¹−1 that no step may
// pack. Every row has a non-zero bias. Each input also runs through
// InferWith's own dispatch.
func TestEveryDenseTierMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	type model struct {
		name   string
		p      *Program
		inputs [][]int64
	}
	var models []model
	canary := func(r *rand.Rand) []float64 { return randomInput(r, 4) }
	for _, m := range []struct {
		name    string
		sizes   []int
		acts    []nn.Activation
		input   func(*rand.Rand) []float64
		real    int  // hidden units whose head weights stay; the rest are zeroed
		offHead bool // the head's Σ|w| is past the packed tier
	}{
		{"Aurora", []int{30, 32, 16, 1}, tanhHead, miState, 16, false},
		{"MOCC", []int{30, 64, 32, 1}, tanhHead, miState, 32, false},
		{"FFNN", []int{4, 5, 5, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Linear}, flowFeatures, 5, false},
		// fig_canary.go's bloat: 16 hidden units of a base net padded with
		// 2032 whose head weights are zero.
		{"canary", []int{4, 2048, 1}, []nn.Activation{nn.Tanh, nn.Linear}, canary, 16, false},
		// The same shape with nn.New's whole random head: its one row sums
		// |w| far past 2¹⁶, so the head runs dot4 only.
		{"canary random head", []int{4, 2048, 1}, []nn.Activation{nn.Tanh, nn.Linear}, canary, 2048, true},
	} {
		net := nn.New(m.sizes, m.acts, 1)
		head := net.Layers[len(net.Layers)-1]
		for i := range head.W {
			clear(head.W[i][m.real:])
		}
		p := Quantize(net, DefaultConfig())
		for li, l := range p.Layers {
			if off := m.offHead && li == len(p.Layers)-1; (l.w16 == nil) != off {
				t.Fatalf("%s layer %d: on the packed tier = %v", m.name, li, l.w16 != nil)
			}
			randomBiases(r, l)
		}
		var inputs [][]int64
		for k := 0; k < 16; k++ {
			inputs = append(inputs, p.QuantizeInput(m.input(r), nil))
		}
		models = append(models, model{m.name, p, inputs})
	}
	edges := func(n int) [][]int64 {
		vs := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)}
		for j := 0; j < n; j++ {
			vs[0][j] = math.MaxInt16
			vs[1][j] = math.MinInt16
			vs[2][j] = math.MaxInt16 * int64(1-2*(j%2))
			vs[3][j] = int64(int16(r.Uint32()))
			vs[4][j] = math.MinInt16
		}
		vs[4][n-1] = math.MaxInt32
		return vs
	}
	for _, in := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33} {
		for out := 1; out <= 8; out++ {
			for _, past := range []bool{false, true} {
				p := Quantize(nn.New([]int{in, out}, []nn.Activation{nn.Linear}, int64(in*out)), DefaultConfig())
				l := p.Layers[0]
				for j := 0; j < in; j++ {
					l.SetWeight(0, j, 0)
				}
				row := []int64{math.MaxInt16, -math.MaxInt16, 1} // Σ|w| = 2¹⁶−1
				switch in {
				case 1:
					row = []int64{math.MinInt16} // as far as one weight goes
				case 2:
					row = []int64{math.MinInt16, math.MaxInt16}
				}
				if past {
					switch in {
					case 1:
						row[0] = 1 << 15
					case 2:
						row[1] = math.MinInt16
					default:
						row[2] = 2
					}
				}
				for k, w := range row {
					l.SetWeight(0, (k+out)%in, w)
				}
				if (l.w16 == nil) != past {
					t.Fatalf("%d→%d, first row %v: on the packed tier = %v", in, out, row, l.w16 != nil)
				}
				randomBiases(r, l)
				models = append(models, model{fmt.Sprintf("%d→%d row %v", in, out, row), p, edges(in)})
			}
		}
	}

	ran := 0
	var a Arena
	for _, m := range models {
		a.Reserve(m.p.MaxWidth())
		for _, in := range m.inputs {
			cur := in
			for li, l := range m.p.Layers {
				want := referenceDense(l, cur)
				off := *l
				off.w16 = nil
				got := make([]int64, l.Out)
				off.dense(cur, a.x16, got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s layer %d, dot4: %v, reference %v", m.name, li, got, want)
				}
				if packed && l.w16 != nil {
					clear(got)
					ok := dense16(l.w16, l.B, cur, a.x16[:stride16(l.In)], got)
					if ok != fitsInt16(cur) {
						t.Fatalf("%s layer %d: dense16 took the step = %v on input %v", m.name, li, ok, cur)
					}
					if ok {
						ran++
						if !slices.Equal(got, want) {
							t.Fatalf("%s layer %d, dense16: %v, reference %v", m.name, li, got, want)
						}
					}
				}
				for i, acc := range want {
					want[i] = referenceActivate(l, acc)
				}
				cur = want
			}
			checkAgainstReference(t, m.p, in, m.name)
		}
	}
	if packed && ran == 0 {
		t.Fatal("dense16 ran on no step")
	}
}
