package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTrainer is TrainBatch with Adam written out plainly: Forward per
// sample, a triple-loop backward over the caches Forward leaves, and one
// Adam loop over every weight then every bias of each layer. It trains its
// own network and keeps its own moments.
type refTrainer struct {
	net    *Network
	t      int
	m, v   [][]float64 // per layer: the weights row by row, then the biases
	lr     float64
	scaled []float64 // the output gradient, per sample
}

func newRefTrainer(n *Network, lr float64) *refTrainer {
	r := &refTrainer{net: n.Clone(), lr: lr, scaled: make([]float64, n.OutputSize())}
	for _, l := range n.Layers {
		r.m = append(r.m, make([]float64, l.In*l.Out+l.Out))
		r.v = append(r.v, make([]float64, l.In*l.Out+l.Out))
	}
	return r
}

func (r *refTrainer) step(x, y [][]float64, clipNorm float64) float64 {
	n := r.net
	for _, l := range n.Layers {
		for i := range l.GW {
			for j := range l.GW[i] {
				l.GW[i][j] = 0
			}
			l.GB[i] = 0
		}
	}
	out := make([]float64, n.OutputSize())
	total := 0.0
	for k := range x {
		n.Forward(x[k], out)
		total += MSE(out, y[k], r.scaled)
		for i := range r.scaled {
			r.scaled[i] *= 1 / float64(len(x))
		}
		grad := r.scaled
		for li := len(n.Layers) - 1; li >= 0; li-- {
			l := n.Layers[li]
			prev := make([]float64, l.In)
			for i := 0; i < l.Out; i++ {
				d := grad[i] * l.Act.Deriv(l.out[i])
				l.GB[i] += d
				for j := 0; j < l.In; j++ {
					l.GW[i][j] += d * l.input[j]
					prev[j] += d * l.W[i][j]
				}
			}
			grad = prev
		}
	}
	n.ClipGrad(clipNorm)

	r.t++
	// Variables, not constants: 1-b1 must round as Adam's 1-o.beta1 does,
	// not be the exact constant 0.1.
	b1, b2, eps := 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(b1, float64(r.t))
	bc2 := 1 - math.Pow(b2, float64(r.t))
	for li, l := range n.Layers {
		k := 0
		update := func(p *float64, g float64) {
			m, v := &r.m[li][k], &r.v[li][k]
			*m = b1**m + (1-b1)*g
			*v = b2**v + (1-b2)*g*g
			*p -= r.lr * (*m / bc1) / (math.Sqrt(*v/bc2) + eps)
			k++
		}
		for i := range l.W {
			for j := range l.W[i] {
				update(&l.W[i][j], l.GW[i][j])
			}
		}
		for i := range l.B {
			update(&l.B[i], l.GB[i])
		}
	}
	return total / float64(len(x))
}

// sameTraining reports the first parameter or Adam moment where the product
// network and optimizer differ from the reference, or "" when every one has
// the reference's bits (NaN matching any NaN when nanAny is set).
func sameTraining(n *Network, opt *Adam, r *refTrainer, nanAny bool) string {
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || nanAny && math.IsNaN(a) && math.IsNaN(b)
	}
	for li, l := range n.Layers {
		rl := r.net.Layers[li]
		st := opt.mv[l]
		for i := range l.W {
			for j := range l.W[i] {
				k := i*l.In + j
				if !eq(l.W[i][j], rl.W[i][j]) {
					return fmt.Sprintf("layer %d W[%d][%d] = %x, reference %x", li, i, j, l.W[i][j], rl.W[i][j])
				}
				if !eq(st.mW[k], r.m[li][k]) || !eq(st.vW[k], r.v[li][k]) {
					return fmt.Sprintf("layer %d moments of W[%d][%d] = %x, %x, reference %x, %x",
						li, i, j, st.mW[k], st.vW[k], r.m[li][k], r.v[li][k])
				}
			}
			k := l.In*l.Out + i
			if !eq(l.B[i], rl.B[i]) {
				return fmt.Sprintf("layer %d B[%d] = %x, reference %x", li, i, l.B[i], rl.B[i])
			}
			if !eq(st.mB[i], r.m[li][k]) || !eq(st.vB[i], r.v[li][k]) {
				return fmt.Sprintf("layer %d moments of B[%d] = %x, %x, reference %x, %x",
					li, i, st.mB[i], st.vB[i], r.m[li][k], r.v[li][k])
			}
		}
	}
	return ""
}

// TestTrainBatchMatchesReference: on every shape of kernelZoo, with each
// activation in the hidden layers (the last layer cycling as in
// TestInferBatchMatchesForward), at every batch size 1–9 (so the forward
// pass runs 0–2 groups of four and 0–3 samples through Forward), 20 steps of
// TrainBatch with Adam give the reference's loss, weights, biases and
// moments bit for bit after every step. One run more interleaves InferBatch
// between the steps, which must not disturb training.
func TestTrainBatchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, z := range kernelZoo {
		for _, hidden := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
			acts := make([]Activation, len(z.sizes)-1)
			for i := range acts {
				acts[i] = hidden
			}
			acts[len(acts)-1] = (hidden + 1) % 4
			for size := 1; size <= 10; size++ {
				interleave := size == 10 // the tenth run interleaves, at batch 7
				batch := size
				if interleave {
					batch = 7
				}
				name := fmt.Sprintf("%s/%s/batch %d", z.name, hidden, batch)
				if interleave {
					name += "/interleaved"
				}
				n := New(z.sizes, acts, int64(size))
				ref := newRefTrainer(n, 0.01)
				opt := NewAdam(0.01)
				for step := 0; step < 20; step++ {
					x := kernelInputs(r, batch, n.InputSize())
					y := kernelInputs(r, batch, n.OutputSize())
					got, want := TrainBatch(n, opt, x, y, 1), ref.step(x, y, 1)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, step %d: loss %x, reference %x", name, step, got, want)
					}
					if diff := sameTraining(n, opt, ref, false); diff != "" {
						t.Fatalf("%s, step %d: %s", name, step, diff)
					}
					if interleave {
						xs := kernelInputs(r, 5, n.InputSize())
						n.InferBatch(xs, make([]float64, 5*n.OutputSize()))
						n.Infer(xs[0])
					}
				}
			}
		}
	}
}

// FuzzTrainBatchMatchesReference trains a random net of 1–3 layers of
// widths 1–9 for a few steps on inputs and targets read from data as raw
// float64 bits (so NaN, ±Inf, subnormals and huge values reach every
// kernel) and compares TrainBatch with refTrainer after each step; NaN
// matches any NaN.
func FuzzTrainBatchMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{2, 4, 5, 1, 2}, uint8(3), uint8(8), []byte(nil))
	f.Add(int64(2), []byte{30, 9, 7, 3, 0}, uint8(1), uint8(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(int64(3), []byte{4, 8, 2, 2}, uint8(2), uint8(9), []byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, actSeed, batch uint8, data []byte) {
		sizes := []int{1 + int(at(shape, 0))%9}
		var acts []Activation
		for l := 0; l < 1+int(at(shape, 1))%3; l++ {
			sizes = append(sizes, 1+int(at(shape, 2+l))%9)
			acts = append(acts, Activation((int(actSeed)+l)%4))
		}
		n := New(sizes, acts, seed)
		ref := newRefTrainer(n, 0.01)
		opt := NewAdam(0.01)
		r := rand.New(rand.NewSource(seed))
		size := 1 + int(batch)%9
		for step := 0; step < 3; step++ {
			x := kernelInputs(r, size, n.InputSize())
			y := kernelInputs(r, size, n.OutputSize())
			for _, v := range append(x, y...) {
				for j := range v {
					if len(data) < 8 {
						break
					}
					v[j] = math.Float64frombits(binary.LittleEndian.Uint64(data))
					data = data[8:]
				}
			}
			got, want := TrainBatch(n, opt, x, y, 1), ref.step(x, y, 1)
			if !sameBits(got, want) {
				t.Fatalf("step %d: loss %x, reference %x", step, got, want)
			}
			if diff := sameTraining(n, opt, ref, true); diff != "" {
				t.Fatalf("step %d: %s", step, diff)
			}
		}
	})
}

// at returns b[i], or 0 past its end.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

func TestTrainBatchNoAllocAfterFirst(t *testing.T) {
	n := New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 1)
	r := rand.New(rand.NewSource(1))
	x, y := kernelInputs(r, 7, 30), kernelInputs(r, 7, 1)
	opt := NewAdam(0.01)
	TrainBatch(n, opt, x, y, 1)
	if allocs := testing.AllocsPerRun(20, func() { TrainBatch(n, opt, x, y, 1) }); allocs != 0 {
		t.Errorf("TrainBatch allocates %v times per call after the first, want 0", allocs)
	}
}
