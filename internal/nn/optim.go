package nn

import (
	"fmt"
	"math"
)

// Optimizer applies accumulated gradients to a network's parameters.
type Optimizer interface {
	Step(n *Network)
}

// Adam is the Adam optimizer (Kingma & Ba), the tuner the paper cites for
// userspace model optimization.
type Adam struct {
	LR      float64
	beta1   float64
	beta2   float64
	epsilon float64

	t  int
	mv map[*Dense]*adamState
}

// adamState is one layer's first and second moments, laid out like the
// layer's slab and bias.
type adamState struct{ mW, vW, mB, vB []float64 }

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, mv: make(map[*Dense]*adamState)}
}

// Step applies one Adam update using the gradients accumulated in n.
func (o *Adam) Step(n *Network) {
	o.t++
	c := adamCoefs{
		b1: o.beta1, c1: 1 - o.beta1, b2: o.beta2, c2: 1 - o.beta2, lr: o.LR,
		bc1: 1 - math.Pow(o.beta1, float64(o.t)), bc2: 1 - math.Pow(o.beta2, float64(o.t)), eps: o.epsilon,
	}
	for _, l := range n.Layers {
		st, ok := o.mv[l]
		if !ok {
			st = &adamState{
				mW: make([]float64, len(l.w)), vW: make([]float64, len(l.w)),
				mB: make([]float64, l.Out), vB: make([]float64, l.Out),
			}
			o.mv[l] = st
		}
		adamStep(l.w, l.gw[:len(l.w)], st.mW[:len(l.w)], st.vW[:len(l.w)], &c)
		adamStep(l.B, l.GB[:l.Out], st.mB[:l.Out], st.vB[:l.Out], &c)
	}
}

// adamCoefs is one Adam step's scalars: the betas, one minus each, the
// learning rate, the two bias corrections and epsilon.
type adamCoefs struct{ b1, c1, b2, c2, lr, bc1, bc2, eps float64 }

// adamStepGo moves every parameter p[k] by its Adam update for gradient
// g[k], updating the moments m[k] and v[k]. It is adamStep off amd64, and on
// amd64 the reference its assembly is tested against.
func adamStepGo(p, g, m, v []float64, c *adamCoefs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for k, gk := range g {
		m[k] = c.b1*m[k] + c.c1*gk
		v[k] = c.b2*v[k] + c.c2*gk*gk
		p[k] -= c.lr * (m[k] / c.bc1) / (math.Sqrt(v[k]/c.bc2) + c.eps)
	}
}

// MSE returns the mean squared error between pred and target and writes
// dLoss/dPred into grad (all slices must share a length).
func MSE(pred, target, grad []float64) float64 {
	loss := 0.0
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n
}

// TrainBatch runs one optimizer step over the (x, y) pairs with MSE loss and
// returns the mean loss across the batch. Gradients are averaged over the
// batch and clipped to clipNorm (0 disables clipping).
//
// Four samples at a time go through the forward pass together (the kernels
// InferBatch runs); the len(x)%4 that remain go through Forward. Backward then
// runs per sample in sample order, so every gradient accumulates as it would
// after a Forward per sample, and the result is that loop's bit for bit. It
// allocates nothing after the network's first TrainBatch.
func TrainBatch(n *Network, opt Optimizer, x, y [][]float64, clipNorm float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if len(x) != len(y) {
		panic("nn: x/y length mismatch")
	}
	os := n.OutputSize()
	for k := range x {
		n.checkInput(x[k])
		if len(y[k]) != os {
			panic(fmt.Sprintf("nn: target size %d, want %d", len(y[k]), os))
		}
	}
	if n.act4 == nil {
		n.act4 = make([][]lanes, len(n.Layers)+1)
		n.act4[0] = make([]lanes, n.InputSize())
		for li, l := range n.Layers {
			n.act4[li+1] = make([]lanes, l.Out)
		}
		n.out, n.grad = make([]float64, os), make([]float64, os)
		n.left = make([]uint32, n.maxWidth())
	}
	n.ZeroGrad()
	inv := 1 / float64(len(x))
	total := 0.0
	step := func(out, target []float64) {
		total += MSE(out, target, n.grad)
		for i := range n.grad {
			n.grad[i] *= inv
		}
		n.Backward(n.grad)
	}
	k := 0
	for ; k+4 <= len(x); k += 4 {
		n.forwardLanes(x[k : k+4])
		for s := range 4 {
			step(n.loadLane(s), y[k+s])
		}
	}
	for ; k < len(x); k++ {
		n.Forward(x[k], n.out)
		step(n.out, y[k])
	}
	n.ClipGrad(clipNorm)
	opt.Step(n)
	return total / float64(len(x))
}

// Imitate fits n to a teacher: iters TrainBatch steps (clip norm 5) under one
// Adam at rate lr, each on 64 samples that sample(i) draws for i = 0…63 in
// order. It returns the last step's loss.
func Imitate(n *Network, lr float64, iters int, sample func(i int) (x, y []float64)) float64 {
	const batch = 64
	opt := NewAdam(lr)
	x := make([][]float64, batch)
	y := make([][]float64, batch)
	var loss float64
	for range iters {
		for i := range batch {
			x[i], y[i] = sample(i)
		}
		loss = TrainBatch(n, opt, x, y, 5)
	}
	return loss
}
