package quant

// The oracle for the inference kernel: the row-at-a-time loop with a
// per-neuron activation switch and a dividing LUT that Program.Infer ran
// before it was blocked, kept here so the kernel is checked bit for bit
// against the plainest statement of what it computes.

import (
	"fmt"
	"math"
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
		return rescale(acc, l.accScale, l.outScale)
	case nn.Tanh, nn.Sigmoid:
		return referenceLookup(l, acc)
	default:
		return rescale(acc, l.accScale, l.outScale)
	}
}

func referenceLookup(l *Layer, acc int64) int64 {
	if acc <= l.tblMin {
		return l.table[0]
	}
	if acc >= l.tblMax {
		return l.table[len(l.table)-1]
	}
	span := l.tblMax - l.tblMin
	num := (acc - l.tblMin) * int64(len(l.table)-1)
	idx := num / span
	rem := num % span
	lo := l.table[idx]
	hi := l.table[idx+1]
	return lo + (hi-lo)*rem/span
}

// nonPow2Config has table spans that are not powers of two at both the hidden
// scale (2·6·2²⁴) and the output layer's (2·6·1000·2¹²), so the dividing arm
// of lookup runs.
func nonPow2Config() Config {
	cfg := DefaultConfig()
	cfg.TableRange = 6
	cfg.ActScale = 1000
	return cfg
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
// activations, both interpolation arms and inputs that are random, zero and
// far outside the table range.
func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, cfg := range []Config{DefaultConfig(), nonPow2Config()} {
		pow2 := cfg.TableRange == DefaultConfig().TableRange
		for _, act := range []nn.Activation{nn.Linear, nn.ReLU, nn.Tanh, nn.Sigmoid} {
			for _, in := range []int{1, 3, 30} {
				for _, out := range []int{1, 2, 3, 4, 5, 7, 16, 33} {
					// The layer under test feeds a second one, so its outputs
					// are consumed at the hidden scale and at the output scale.
					net := nn.New([]int{in, out, out}, []nn.Activation{act, act}, r.Int63())
					p := Quantize(net, cfg)
					for li, l := range p.Layers {
						if l.table != nil && (l.tblShift != 0) != pow2 {
							t.Fatalf("layer %d span %d: tblShift = %d", li, l.tblMax-l.tblMin, l.tblShift)
						}
					}
					what := fmt.Sprintf("%v %d-%d-%d pow2=%v", act, in, out, out, pow2)
					x := make([]int64, in)
					checkAgainstReference(t, p, x, what+" zero")
					for trial := 0; trial < 4; trial++ {
						p.QuantizeInput(randomInput(r, in), x)
						checkAgainstReference(t, p, x, what+" random")
					}
					for j := range x {
						x[j] = (200*r.Int63n(2) - 100) * cfg.InputScale
					}
					checkAgainstReference(t, p, x, what+" saturating")
				}
			}
		}
	}
}

// TestLookupMatchesReference walks both interpolation arms of lookup over
// every table segment and the clamps, on the real tanh tables and on a
// hand-built falling table — the only way the interpolation numerator goes
// negative, which sends a power-of-two layer to the divide.
func TestLookupMatchesReference(t *testing.T) {
	pow2 := &Layer{Act: nn.Tanh, accScale: 1 << 12, outScale: 1 << 12}
	pow2.useTable(4096, 8)
	div := &Layer{Act: nn.Tanh, accScale: 1000, outScale: 1 << 12}
	div.useTable(4096, 6)
	falling := &Layer{Act: nn.Tanh, accScale: 1 << 12, outScale: 1 << 12}
	falling.useTable(64, 8)
	falling.table = slices.Clone(falling.table)
	slices.Reverse(falling.table)
	if pow2.tblShift != 16 || div.tblShift != 0 || falling.tblShift != 16 {
		t.Fatalf("tblShift = %d, %d, %d; want 16, 0, 16", pow2.tblShift, div.tblShift, falling.tblShift)
	}
	for name, l := range map[string]*Layer{"pow2": pow2, "divide": div, "falling": falling} {
		var accs, want []int64
		for acc := l.tblMin - 3; acc <= l.tblMax+3; acc++ {
			accs = append(accs, acc)
			want = append(want, referenceLookup(l, acc))
		}
		l.lookup(accs)
		if !slices.Equal(accs, want) {
			for i := range accs {
				if accs[i] != want[i] {
					t.Errorf("%s: lookup(%d) = %d, reference = %d", name, l.tblMin-3+int64(i), accs[i], want[i])
					break
				}
			}
		}
	}
}

// TestWeightRowsViewTheSlab: SetWeight writes the slab the kernel reads, so
// a weight written is the weight inferred with. A write outside int32 marks
// its layer wide for good and an input outside int32 keeps its step off
// dot4n; on either trigger the output still equals the reference.
func TestWeightRowsViewTheSlab(t *testing.T) {
	net := nn.New([]int{6, 8, 4}, []nn.Activation{nn.Linear, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	for li, l := range p.Layers {
		if len(l.w) != l.In*l.Out || l.wide {
			t.Fatalf("layer %d: slab holds %d weights (want %d), wide = %v", li, len(l.w), l.In*l.Out, l.wide)
		}
	}
	in := p.QuantizeInput([]float64{0.5, -0.25, 1, 0.125, 0.75, -1}, nil)
	l0, l1 := p.Layers[0], p.Layers[1]
	l0.SetWeight(4, 1, l0.Weight(4, 1)+1<<10)
	l1.SetWeight(1, 7, l1.Weight(1, 7)-1<<10)
	if l0.w[4*l0.In+1] != l0.Weight(4, 1) || l1.w[1*l1.In+7] != l1.Weight(1, 7) {
		t.Fatal("SetWeight did not write the slab at row·In + column")
	}
	if l0.wide || l1.wide {
		t.Fatal("a write inside int32 marked a layer wide")
	}
	checkAgainstReference(t, p, in, "after SetWeight inside int32")

	l0.SetWeight(2, 0, 1<<40)
	if !l0.wide || l1.wide {
		t.Fatalf("after writing 1<<40 into layer 0: wide = %v, %v; want true, false", l0.wide, l1.wide)
	}
	checkAgainstReference(t, p, in, "wide weight")
	l0.SetWeight(2, 0, 1)
	if !l0.wide {
		t.Error("a narrow write cleared the wide mark")
	}

	q := Quantize(net, DefaultConfig())
	big := slices.Clone(in)
	big[0] = 1 << 31
	checkAgainstReference(t, q, big, "input outside int32")
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
