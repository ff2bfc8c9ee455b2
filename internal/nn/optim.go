package nn

import "math"

// Optimizer applies accumulated gradients to a network's parameters.
type Optimizer interface {
	Step(n *Network)
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64

	v map[*Dense]*sgdState
}

// sgdState is one layer's velocity, laid out like the layer's slab and bias.
type sgdState struct{ w, b []float64 }

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, v: make(map[*Dense]*sgdState)}
}

// Step applies one update using the gradients accumulated in n.
func (o *SGD) Step(n *Network) {
	for _, l := range n.Layers {
		st, ok := o.v[l]
		if !ok {
			st = &sgdState{w: make([]float64, len(l.w)), b: make([]float64, l.Out)}
			o.v[l] = st
		}
		o.step(l.w, l.gw, st.w)
		o.step(l.B, l.GB, st.b)
	}
}

func (o *SGD) step(p, g, v []float64) {
	g, v = g[:len(p)], v[:len(p)]
	for k := range p {
		v[k] = o.Momentum*v[k] - o.LR*g[k]
		p[k] += v[k]
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the tuner the paper cites for
// userspace model optimization.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mv map[*Dense]*adamState
}

// adamState is one layer's first and second moments, laid out like the
// layer's slab and bias.
type adamState struct{ mW, vW, mB, vB []float64 }

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, mv: make(map[*Dense]*adamState)}
}

// Step applies one Adam update using the gradients accumulated in n.
func (o *Adam) Step(n *Network) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, l := range n.Layers {
		st, ok := o.mv[l]
		if !ok {
			st = &adamState{
				mW: make([]float64, len(l.w)), vW: make([]float64, len(l.w)),
				mB: make([]float64, l.Out), vB: make([]float64, l.Out),
			}
			o.mv[l] = st
		}
		o.step(l.w, l.gw, st.mW, st.vW, bc1, bc2)
		o.step(l.B, l.GB, st.mB, st.vB, bc1, bc2)
	}
}

func (o *Adam) step(p, grad, m, v []float64, bc1, bc2 float64) {
	grad, m, v = grad[:len(p)], m[:len(p)], v[:len(p)]
	for k, g := range grad {
		m[k] = o.Beta1*m[k] + (1-o.Beta1)*g
		v[k] = o.Beta2*v[k] + (1-o.Beta2)*g*g
		p[k] -= o.LR * (m[k] / bc1) / (math.Sqrt(v[k]/bc2) + o.Epsilon)
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
func TrainBatch(n *Network, opt Optimizer, x, y [][]float64, clipNorm float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if len(x) != len(y) {
		panic("nn: x/y length mismatch")
	}
	n.ZeroGrad()
	out := make([]float64, n.OutputSize())
	grad := make([]float64, n.OutputSize())
	total := 0.0
	for k := range x {
		n.Forward(x[k], out)
		total += MSE(out, y[k], grad)
		inv := 1 / float64(len(x))
		for i := range grad {
			grad[i] *= inv
		}
		n.Backward(grad)
	}
	n.ClipGrad(clipNorm)
	opt.Step(n)
	return total / float64(len(x))
}
