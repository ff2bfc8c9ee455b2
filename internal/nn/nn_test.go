package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		a    Activation
		x    float64
		want float64
	}{
		{Linear, 3, 3},
		{Linear, -2, -2},
		{ReLU, 5, 5},
		{ReLU, -5, 0},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, c := range cases {
		if got := c.a.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
	if Tanh.Apply(100) <= 0.999 || Sigmoid.Apply(100) <= 0.999 {
		t.Error("saturating activations must approach 1")
	}
}

// Derivatives checked against finite differences through the output form.
func TestActivationDerivs(t *testing.T) {
	for _, a := range []Activation{Linear, Tanh, Sigmoid} {
		for _, x := range []float64{-1.5, -0.2, 0.3, 1.2} {
			h := 1e-6
			want := (a.Apply(x+h) - a.Apply(x-h)) / (2 * h)
			got := a.Deriv(a.Apply(x))
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("%v.Deriv at %v = %v, want %v", a, x, got, want)
			}
		}
	}
	if ReLU.Deriv(2) != 1 || ReLU.Deriv(0) != 0 {
		t.Error("ReLU derivative wrong")
	}
}

func TestActivationString(t *testing.T) {
	names := map[Activation]string{Linear: "linear", ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestNewShapeValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New([]int{3}, nil, 1) },
		func() { New([]int{3, 2}, []Activation{ReLU, ReLU}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction must panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeterministicInit(t *testing.T) {
	a := New([]int{4, 8, 2}, []Activation{Tanh, Linear}, 42)
	b := New([]int{4, 8, 2}, []Activation{Tanh, Linear}, 42)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	oa, ob := a.Infer(in), b.Infer(in)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed must give identical networks")
		}
	}
	c := New([]int{4, 8, 2}, []Activation{Tanh, Linear}, 43)
	oc := c.Infer(in)
	if oa[0] == oc[0] && oa[1] == oc[1] {
		t.Error("different seeds should give different networks")
	}
}

func TestForwardKnownValues(t *testing.T) {
	// Hand-build a 2→2→1 net with known weights.
	n := New([]int{2, 2, 1}, []Activation{ReLU, Linear}, 1)
	copy(n.Layers[0].W[0], []float64{1, 1})
	copy(n.Layers[0].W[1], []float64{1, -1})
	n.Layers[0].B = []float64{0, 0}
	copy(n.Layers[1].W[0], []float64{2, 3})
	n.Layers[1].B = []float64{-1}
	out := n.Infer([]float64{3, 1})
	// hidden = relu([4, 2]) = [4, 2]; out = 2·4 + 3·2 − 1 = 13
	if out[0] != 13 {
		t.Errorf("out = %v, want 13", out[0])
	}
	out = n.Infer([]float64{1, 3})
	// hidden = relu([4, −2]) = [4, 0]; out = 8 − 1 = 7
	if out[0] != 7 {
		t.Errorf("out = %v, want 7", out[0])
	}
}

func TestForwardSizePanics(t *testing.T) {
	n := New([]int{2, 2}, []Activation{Linear}, 1)
	defer func() {
		if recover() == nil {
			t.Error("wrong input size must panic")
		}
	}()
	n.Forward([]float64{1}, make([]float64, 2))
}

func TestMACsAndParams(t *testing.T) {
	// Aurora architecture: 30 → 32 → 16 → 1.
	n := New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 1)
	wantMACs := 30*32 + 32*16 + 16*1
	if n.MACs() != wantMACs {
		t.Errorf("MACs = %d, want %d", n.MACs(), wantMACs)
	}
	wantParams := wantMACs + 32 + 16 + 1
	if n.NumParams() != wantParams {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), wantParams)
	}
}

// Gradient check: backprop gradients must match finite differences.
func TestBackwardGradientCheck(t *testing.T) {
	n := New([]int{3, 4, 2}, []Activation{Tanh, Sigmoid}, 7)
	in := []float64{0.5, -0.3, 0.8}
	target := []float64{0.2, 0.7}
	out := make([]float64, 2)
	grad := make([]float64, 2)

	loss := func() float64 {
		n.Forward(in, out)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += d * d
		}
		return l / 2
	}

	n.ZeroGrad()
	n.Forward(in, out)
	for i := range grad {
		grad[i] = (out[i] - target[i]) // dLoss/dOut for 0.5·Σd²
	}
	n.Backward(grad)

	const h = 1e-6
	for li, l := range n.Layers {
		for i := range l.W {
			for j := range l.W[i] {
				orig := l.W[i][j]
				l.W[i][j] = orig + h
				lp := loss()
				l.W[i][j] = orig - h
				lm := loss()
				l.W[i][j] = orig
				want := (lp - lm) / (2 * h)
				if math.Abs(l.GW[i][j]-want) > 1e-4 {
					t.Fatalf("layer %d W[%d][%d]: grad = %v, finite diff = %v", li, i, j, l.GW[i][j], want)
				}
			}
			orig := l.B[i]
			l.B[i] = orig + h
			lp := loss()
			l.B[i] = orig - h
			lm := loss()
			l.B[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(l.GB[i]-want) > 1e-4 {
				t.Fatalf("layer %d B[%d]: grad = %v, finite diff = %v", li, i, want, l.GB[i])
			}
		}
	}
}

func TestZeroGrad(t *testing.T) {
	n := New([]int{2, 3, 1}, []Activation{ReLU, Linear}, 1)
	out := make([]float64, 1)
	n.Forward([]float64{1, 2}, out)
	n.Backward([]float64{1})
	n.ZeroGrad()
	for _, l := range n.Layers {
		for i := range l.GW {
			for j := range l.GW[i] {
				if l.GW[i][j] != 0 {
					t.Fatal("ZeroGrad left weight gradient")
				}
			}
			if l.GB[i] != 0 {
				t.Fatal("ZeroGrad left bias gradient")
			}
		}
	}
}

func TestClipGrad(t *testing.T) {
	n := New([]int{1, 1}, []Activation{Linear}, 1)
	n.Layers[0].GW[0][0] = 3
	n.Layers[0].GB[0] = 4 // norm = 5
	n.ClipGrad(1)
	norm := math.Hypot(n.Layers[0].GW[0][0], n.Layers[0].GB[0])
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("clipped norm = %v, want 1", norm)
	}
	// Within bounds: untouched.
	n.Layers[0].GW[0][0] = 0.1
	n.Layers[0].GB[0] = 0
	n.ClipGrad(1)
	if n.Layers[0].GW[0][0] != 0.1 {
		t.Error("in-bounds gradient must not be scaled")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := New([]int{2, 3, 1}, []Activation{Tanh, Linear}, 5)
	c := n.Clone()
	in := []float64{0.3, -0.7}
	if n.Infer(in)[0] != c.Infer(in)[0] {
		t.Fatal("clone must match original")
	}
	n.Layers[0].W[0][0] += 1
	if n.Infer(in)[0] == c.Infer(in)[0] {
		t.Error("mutating original must not affect clone")
	}
}

// Training must fit a simple function (XOR) — an end-to-end check of
// forward, backward, and the optimizer.
func TestTrainXOR(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := [][]float64{{0}, {1}, {1}, {0}}
	n := New([]int{2, 8, 1}, []Activation{Tanh, Sigmoid}, 3)
	opt := NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 2000; epoch++ {
		loss = TrainBatch(n, opt, x, y, 0)
	}
	if loss > 0.01 {
		t.Errorf("XOR loss after training = %v, want < 0.01", loss)
	}
	for i := range x {
		p := n.Infer(x[i])[0]
		if math.Abs(p-y[i][0]) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", x[i], p, y[i][0])
		}
	}
}

func TestTrainBatchValidation(t *testing.T) {
	n := New([]int{1, 1}, []Activation{Linear}, 1)
	if got := TrainBatch(n, NewAdam(0.1), nil, nil, 0); got != 0 {
		t.Error("empty batch must return 0 loss")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched batch must panic")
		}
	}()
	TrainBatch(n, NewAdam(0.1), [][]float64{{1}}, nil, 0)
}

func TestMSE(t *testing.T) {
	grad := make([]float64, 2)
	loss := MSE([]float64{1, 2}, []float64{0, 0}, grad)
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("MSE = %v, want 2.5", loss)
	}
	if grad[0] != 1 || grad[1] != 2 {
		t.Errorf("grad = %v, want [1 2]", grad)
	}
}

// Property: training on a linear target reduces loss.
func TestTrainingReducesLossProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := New([]int{2, 6, 1}, []Activation{Tanh, Linear}, seed)
		opt := NewAdam(0.01)
		var x, y [][]float64
		for i := 0; i < 32; i++ {
			a, b := r.Float64(), r.Float64()
			x = append(x, []float64{a, b})
			y = append(y, []float64{0.3*a - 0.5*b + 0.1})
		}
		first := TrainBatch(n, opt, x, y, 1)
		var last float64
		for i := 0; i < 200; i++ {
			last = TrainBatch(n, opt, x, y, 1)
		}
		return last < first || last < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestForwardNoAlloc(t *testing.T) {
	n := New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 1)
	in := make([]float64, 30)
	out := make([]float64, 1)
	allocs := testing.AllocsPerRun(100, func() { n.Forward(in, out) })
	if allocs != 0 {
		t.Errorf("Forward allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkForwardAurora(b *testing.B) {
	n := New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 1)
	in := make([]float64, 30)
	out := make([]float64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Forward(in, out)
	}
}

// benchTrainAurora times one TrainBatch (Adam, clipped) on a batch of the
// given size.
func benchTrainAurora(b *testing.B, batch int) {
	n := New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 1)
	opt := NewAdam(0.001)
	x := make([][]float64, batch)
	y := make([][]float64, batch)
	r := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = make([]float64, 30)
		for j := range x[i] {
			x[i][j] = r.Float64()
		}
		y[i] = []float64{r.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainBatch(n, opt, x, y, 1)
	}
}

func BenchmarkTrainBatchAurora(b *testing.B) { benchTrainAurora(b, 32) }

// BenchmarkTrainStepAurora is the slow path's usual step: a handful of
// monitor intervals per batch.
func BenchmarkTrainStepAurora(b *testing.B) { benchTrainAurora(b, 8) }
