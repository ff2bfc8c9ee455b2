// Package nn implements the small float64 multilayer perceptrons used by the
// LiteFlow experiments: Aurora (32/16), MOCC (64/32), FLUX's FFNN (5/5) and
// the load-balancing MLP (12/12). It provides forward/backward passes, the
// Adam optimizer, and deterministic initialization — the userspace
// "slow path" half of the system. The kernel "fast path" half is its
// integer-quantized counterpart in package quant.
//
// The implementation is deliberately simple and allocation-free on the
// forward path: inference writes into caller-provided buffers, following the
// preallocated-decoder idiom from gopacket's DecodingLayerParser.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
)

// String returns the activation name used by codegen templates.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply computes the activation of x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		if y, ok := tanhArm(x); ok {
			return y
		}
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// The coefficients of tanh's rational arm, copied from Go's math/tanh.go,
// which takes them from the Cephes Math Library (Stephen L. Moshier; BSD
// licence, as is Go).
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3
)

// tanhArm returns math.Tanh(x), ok for 0 < |x| < 0.625, the arm most hidden
// units take (the rational function x + x³·P(x²)/Q(x²)), and ok = false for
// every other x: zero of either sign, |x| ≥ 0.625, ±Inf and NaN, which the
// caller hands to math.Tanh. It inlines, so a layer pays no call for a small
// value. The expression is math.Tanh's own in math.Tanh's operation order, and
// on every GOARCH but s390x math.Tanh is that pure-Go code, so the same
// compiler emits the same operations (a multiply-add it fuses there it fuses
// here). On s390x math.Tanh is assembly and the two may differ in the last
// bit.
func tanhArm(x float64) (float64, bool) {
	if math.Abs(x) < 0.625 && x != 0 {
		s := x * x
		return x + x*s*((tanhP0*s+tanhP1)*s+tanhP2)/(((s+tanhQ0)*s+tanhQ1)*s+tanhQ2), true
	}
	return 0, false
}

// Deriv computes the activation derivative given the activation output y.
func (a Activation) Deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// applyAll replaces every finished sum in v with its activation: the switch
// Apply takes per value is taken once per layer here.
func (a Activation) applyAll(v []float64) {
	switch a {
	case ReLU:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case Tanh:
		for i, x := range v {
			if y, ok := tanhArm(x); ok {
				v[i] = y
			} else {
				v[i] = math.Tanh(x)
			}
		}
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	}
}

// Dense is one fully connected layer: out = act(W·in + b).
//
// The weights live in one row-major slab; W[i] is the full-slice view of row
// i (an append to it cannot reach row i+1), so W[i][j] reads and writes the
// element the kernels use. GW views the gradient slab the same way. Replace
// values through the rows, never the row slices themselves.
type Dense struct {
	In, Out int
	W       [][]float64 // [Out][In], rows of one slab
	B       []float64   // [Out]
	Act     Activation

	// Gradient accumulators, filled by Network.Backward.
	GW [][]float64
	GB []float64

	w, gw []float64 // the slabs behind W and GW

	// Cached forward values for backprop.
	input []float64 // last input
	out   []float64 // last activated output
}

// rowViews cuts a rows×cols slab into capacity-limited row slices.
func rowViews(slab []float64, rows, cols int) [][]float64 {
	v := make([][]float64, rows)
	for i := range v {
		v[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return v
}

// newZeroDense allocates a layer of the given shape with every parameter 0.
func newZeroDense(in, out int, act Activation) *Dense {
	d := &Dense{In: in, Out: out, Act: act}
	d.w = make([]float64, out*in)
	d.gw = make([]float64, out*in)
	d.W = rowViews(d.w, out, in)
	d.GW = rowViews(d.gw, out, in)
	d.B = make([]float64, out)
	d.GB = make([]float64, out)
	d.input = make([]float64, in)
	d.out = make([]float64, out)
	return d
}

func newDense(in, out int, act Activation, r *rand.Rand) *Dense {
	d := newZeroDense(in, out, act)
	// Xavier/Glorot uniform initialization keeps small tanh nets trainable.
	limit := math.Sqrt(6 / float64(in+out))
	for k := range d.w {
		d.w[k] = (r.Float64()*2 - 1) * limit
	}
	return d
}

// sums writes B[i] + Σ_j W[i][j]·x[j] into dst[i] for every row. Each sum
// starts from its bias and adds its own row's products in index order —
// float addition is not associative, so that order is the definition of the
// layer's output and every kernel in this file keeps it. Four rows share one
// pass over x (dot4); the Out%4 that remain go one row at a time.
func (l *Dense) sums(x, dst []float64) {
	n := l.In
	x = x[:n]
	w, b := l.w, l.B[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(w[:4*n], x, b[i], b[i+1], b[i+2], b[i+3])
		w = w[4*n:]
	}
	for ; i < len(dst); i++ {
		r := w[:n]
		w = w[n:]
		s := b[i]
		for j, xj := range x[:len(r)] {
			s += r[j] * xj
		}
		dst[i] = s
	}
}

// dot4 extends the four sums s0..s3 by the products of x with the four
// consecutive rows held in rows. Each x[j] is loaded once for four
// multiply-adds on independent accumulators, and every row is cut to one
// common length before the loop, which therefore compiles without a bounds
// check.
func dot4(rows, x []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	n := len(x)
	r0, r1, r2, r3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for j, xj := range x[:len(r0)] {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	return s0, s1, s2, s3
}

// lanes holds one value for each of the four samples InferBatch pushes
// through a layer together.
type lanes [4]float64

// sums4 is sums for four samples at once: x[j] holds input j of each, dst[i]
// receives row i's four sums. Each lane's sum is the one sums forms for that
// sample. The slicing here is what sumLanes's assembly relies on to stay in
// bounds.
func (l *Dense) sums4(x, dst []lanes) {
	x = x[:l.In]
	sumLanes(l.w[:len(dst)*len(x)], l.B[:len(dst)], x, dst)
}

// sumLanesGo writes b[i] + Σ_j w[i·len(x)+j]·x[j] into dst[i], lane by lane,
// for every row i < len(dst). Each weight is loaded once for four
// multiply-adds. It is sumLanes off amd64, and on amd64 the reference its
// assembly is tested against.
func sumLanesGo(w, b []float64, x, dst []lanes) {
	n := len(x)
	for i, bi := range b[:len(dst)] {
		r := w[:n]
		w = w[n:]
		s0, s1, s2, s3 := bi, bi, bi, bi
		for j, wj := range r[:len(x)] {
			xj := &x[j]
			s0 += wj * xj[0]
			s1 += wj * xj[1]
			s2 += wj * xj[2]
			s3 += wj * xj[3]
		}
		dst[i] = lanes{s0, s1, s2, s3}
	}
}

// applyAll4 is applyAll over four-sample lanes. left is tanh's scratch, one
// byte per element of v (tanhLanes).
func (a Activation) applyAll4(v []lanes, left []uint8) {
	switch a {
	case ReLU:
		for i := range v {
			for k, x := range v[i] {
				if x < 0 {
					v[i][k] = 0
				}
			}
		}
	case Tanh:
		tanhLanes(v, left)
	case Sigmoid:
		for i := range v {
			for k, x := range v[i] {
				v[i][k] = 1 / (1 + math.Exp(-x))
			}
		}
	}
}

// tanhLanesGo replaces every value in v with its tanh. It is tanhLanes off
// amd64, and on amd64 the reference its assembly is tested against.
func tanhLanesGo(v []lanes) {
	// The four lanes' arms first, then math.Tanh for each lane the arm
	// leaves: with no loop over the lanes and no call between them, the four
	// divisions overlap (DESIGN.md §4k has the measurement).
	for i := range v {
		x := &v[i]
		y0, ok0 := tanhArm(x[0])
		y1, ok1 := tanhArm(x[1])
		y2, ok2 := tanhArm(x[2])
		y3, ok3 := tanhArm(x[3])
		if !ok0 {
			y0 = math.Tanh(x[0])
		}
		if !ok1 {
			y1 = math.Tanh(x[1])
		}
		if !ok2 {
			y2 = math.Tanh(x[2])
		}
		if !ok3 {
			y3 = math.Tanh(x[3])
		}
		*x = lanes{y0, y1, y2, y3}
	}
}

// Network is a feed-forward stack of Dense layers.
type Network struct {
	Layers []*Dense
	// scratch holds per-layer input-gradient buffers for backprop.
	scratch [][]float64
	// vec and vec4 are the activations inference ping-pongs between, one
	// sample and four samples wide; allocated on first use, never by Forward,
	// so inference leaves the training caches alone.
	vec  [2][]float64
	vec4 [2][]lanes
	// left is tanhLanes's per-group mask, allocated with vec4. It is the
	// Network's, not the package's, so distinct networks infer concurrently.
	left []uint8
}

// New builds a network with the given layer sizes (inputs first) and one
// activation per weight layer (len(acts) == len(sizes)-1). Weights are
// initialized deterministically from seed.
func New(sizes []int, acts []Activation, seed int64) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	if len(acts) != len(sizes)-1 {
		panic("nn: need one activation per layer")
	}
	r := rand.New(rand.NewSource(seed))
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		n.Layers = append(n.Layers, newDense(sizes[i], sizes[i+1], acts[i], r))
		n.scratch = append(n.scratch, make([]float64, sizes[i]))
	}
	return n
}

// InputSize returns the network's input dimension.
func (n *Network) InputSize() int { return n.Layers[0].In }

// OutputSize returns the network's output dimension.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out }

// MACs returns the multiply-accumulate count of one inference, used by the
// CPU cost model.
func (n *Network) MACs() int {
	m := 0
	for _, l := range n.Layers {
		m += l.In * l.Out
	}
	return m
}

// NumParams returns the total parameter count (weights + biases).
func (n *Network) NumParams() int {
	p := 0
	for _, l := range n.Layers {
		p += l.In*l.Out + l.Out
	}
	return p
}

func (n *Network) checkInput(in []float64) {
	if len(in) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(in), n.InputSize()))
	}
}

// Forward runs inference on in, writing the result into out (which must have
// length OutputSize). It caches intermediate activations for Backward and
// performs no allocation.
func (n *Network) Forward(in, out []float64) {
	n.checkInput(in)
	if len(out) != n.OutputSize() {
		panic(fmt.Sprintf("nn: output size %d, want %d", len(out), n.OutputSize()))
	}
	cur := in
	for _, l := range n.Layers {
		copy(l.input, cur)
		l.sums(cur, l.out)
		l.Act.applyAll(l.out)
		cur = l.out
	}
	copy(out, cur)
}

// Infer is Forward without retaining anything for training: the caches
// Backward reads are left as the last Forward wrote them. It allocates the
// output slice for convenience.
func (n *Network) Infer(in []float64) []float64 {
	n.checkInput(in)
	out := make([]float64, n.OutputSize())
	n.infer1(in, out)
	return out
}

// InferBatch writes f(xs[k]) into ys[k·OutputSize : (k+1)·OutputSize] for
// every k, each bit for bit what Forward gives for that input. Four samples
// go through a layer together (sums4), the len(xs)%4 that remain one at a
// time. Like Infer it leaves the training caches alone; it allocates nothing
// after the network's first inference.
func (n *Network) InferBatch(xs [][]float64, ys []float64) {
	os := n.OutputSize()
	if len(ys) != len(xs)*os {
		panic(fmt.Sprintf("nn: batch output len %d, want %d×%d", len(ys), len(xs), os))
	}
	for _, x := range xs {
		n.checkInput(x)
	}
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		n.infer4(xs[k:k+4], ys[k*os:(k+4)*os])
	}
	for ; k < len(xs); k++ {
		n.infer1(xs[k], ys[k*os:(k+1)*os])
	}
}

// maxWidth is the widest vector inference holds: the input or any layer's
// output.
func (n *Network) maxWidth() int {
	w := n.InputSize()
	for _, l := range n.Layers {
		w = max(w, l.Out)
	}
	return w
}

func (n *Network) infer1(in, out []float64) {
	if n.vec[0] == nil {
		w := n.maxWidth()
		n.vec[0], n.vec[1] = make([]float64, w), make([]float64, w)
	}
	cur := in
	for li, l := range n.Layers {
		dst := n.vec[li&1][:l.Out]
		if li == len(n.Layers)-1 {
			dst = out
		}
		l.sums(cur, dst)
		l.Act.applyAll(dst)
		cur = dst
	}
}

// infer4 runs the four samples xs through the network and writes their
// outputs to out, sample after sample.
func (n *Network) infer4(xs [][]float64, out []float64) {
	if n.vec4[0] == nil {
		w := n.maxWidth()
		n.vec4[0], n.vec4[1] = make([]lanes, w), make([]lanes, w)
		n.left = make([]uint8, w)
	}
	cur := n.vec4[1][:n.InputSize()]
	for j := range cur {
		cur[j] = lanes{xs[0][j], xs[1][j], xs[2][j], xs[3][j]}
	}
	for li, l := range n.Layers {
		dst := n.vec4[li&1][:l.Out]
		l.sums4(cur, dst)
		l.Act.applyAll4(dst, n.left)
		cur = dst
	}
	os := len(cur)
	for i, v := range cur {
		out[i], out[os+i], out[2*os+i], out[3*os+i] = v[0], v[1], v[2], v[3]
	}
}

// Backward backpropagates dLoss/dOutput (for the most recent Forward call)
// and accumulates parameter gradients into GW/GB. Call ZeroGrad between
// mini-batches.
func (n *Network) Backward(gradOut []float64) {
	if len(gradOut) != n.OutputSize() {
		panic("nn: gradOut size mismatch")
	}
	grad := gradOut
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		prev := n.scratch[li]
		clear(prev)
		l.backward(grad, prev)
		grad = prev
	}
}

// backward accumulates the layer's parameter gradients for the output
// gradient grad and adds the input gradient into prev. Four rows share one
// pass over the cached input; prev[j] still receives its rows' terms one
// after another in row order (Go adds left to right), so blocking changes no
// bit of it.
func (l *Dense) backward(grad, prev []float64) {
	in := l.input[:l.In]
	prev = prev[:len(in)]
	n := len(in)
	w, gw := l.w, l.gw
	i := 0
	for ; i+4 <= l.Out; i += 4 {
		d0, d1, d2, d3 := l.delta(grad, i), l.delta(grad, i+1), l.delta(grad, i+2), l.delta(grad, i+3)
		r0, r1, r2, r3 := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n]
		g0, g1, g2, g3 := gw[:n], gw[n:2*n], gw[2*n:3*n], gw[3*n:4*n]
		r1, r2, r3 = r1[:n], r2[:n], r3[:n]
		g1, g2, g3 = g1[:n], g2[:n], g3[:n]
		w, gw = w[4*n:], gw[4*n:]
		for j, xj := range in {
			g0[j] += d0 * xj
			g1[j] += d1 * xj
			g2[j] += d2 * xj
			g3[j] += d3 * xj
			prev[j] = prev[j] + d0*r0[j] + d1*r1[j] + d2*r2[j] + d3*r3[j]
		}
	}
	for ; i < l.Out; i++ {
		d := l.delta(grad, i)
		r, g := w[:n], gw[:n]
		w, gw = w[n:], gw[n:]
		for j, xj := range in {
			g[j] += d * xj
			prev[j] += d * r[j]
		}
	}
}

// delta returns dLoss/d(row i's sum) for the output gradient grad and adds it
// to the bias gradient.
func (l *Dense) delta(grad []float64, i int) float64 {
	d := grad[i] * l.Act.Deriv(l.out[i])
	l.GB[i] += d
	return d
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		clear(l.gw)
		clear(l.GB)
	}
}

// ClipGrad scales gradients down so their global L2 norm is at most maxNorm;
// a no-op when already within bounds or maxNorm ≤ 0.
func (n *Network) ClipGrad(maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	// Row by row, each row's weights and then its bias: the order the squares
	// are added in is part of the result.
	var sum float64
	for _, l := range n.Layers {
		for i, row := range l.GW {
			for _, g := range row {
				sum += g * g
			}
			sum += l.GB[i] * l.GB[i]
		}
	}
	norm := math.Sqrt(sum)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	for _, l := range n.Layers {
		for k := range l.gw {
			l.gw[k] *= scale
		}
		for i := range l.GB {
			l.GB[i] *= scale
		}
	}
}

// Clone returns a deep copy sharing no state with n.
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		nl := newZeroDense(l.In, l.Out, l.Act)
		copy(nl.w, l.w)
		copy(nl.B, l.B)
		c.Layers = append(c.Layers, nl)
		c.scratch = append(c.scratch, make([]float64, l.In))
	}
	return c
}
