// Package quant implements LiteFlow's high-precision integer quantization
// (paper §3.1): it converts a float userspace network (package nn) into an
// integer-only Program — the "NN snapshot" — whose inference uses nothing a
// kernel fast path cannot: int64 add/mul/div and table lookups. No float
// operation executes on the inference path.
//
// Two ideas from the paper are load-bearing here:
//
//   - Scale-up layers. Naive integer quantization of an output in [0,1]
//     collapses it to {0,1}. LiteFlow appends a scaling layer with factor C
//     (typically 1000) so outputs live in {0..C}, losing ~2% accuracy
//     (Figure 7). Config.OutputScale is that C.
//
//   - Lookup-table activations. tanh/sigmoid are unavailable in kernel
//     space; Taylor approximations lose precision outside a narrow range and
//     cost more for higher degrees. A bounded LUT with linear interpolation
//     gives constant-time, uniformly accurate evaluation.
//
// A table follows from the activation, the table size and range and the
// layer's two scales — never from a weight — so tables are memoised
// process-wide by those values and shared, read-only, between layers and
// Programs: re-quantizing a retuned network only rounds its weights.
//
// Inference is one kernel (InferWith): per layer a dense step over a
// contiguous weight slab, four rows at a time, then one activation pass over
// the finished accumulators. DESIGN.md §4k "Snapshot execution" says why it
// computes, bit for bit, what the plain loop kept in reference_test.go does.
package quant

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// Config controls quantization precision.
type Config struct {
	// InputScale is the fixed-point scale of network inputs:
	// x_int = round(x_float · InputScale).
	InputScale int64
	// WeightScale is the per-weight fixed-point scale.
	WeightScale int64
	// ActScale is the fixed-point scale of hidden-layer activations.
	ActScale int64
	// OutputScale is the paper's scale-up factor C applied to the final
	// layer: y_int = round(y_float · C). Sweeping C reproduces Figure 7.
	OutputScale int64
	// TableSize is the number of entries in activation lookup tables.
	TableSize int
	// TableRange bounds LUT inputs to [-TableRange, +TableRange] (pre-
	// activation); tanh/sigmoid saturate outside ±8 at float precision.
	TableRange float64
}

// DefaultConfig returns the configuration used by all experiments:
// 1000× output scaling (the paper's example), 4096-entry tables.
func DefaultConfig() Config {
	return Config{
		InputScale:  1 << 12,
		WeightScale: 1 << 12,
		ActScale:    1 << 12,
		OutputScale: 1000,
		TableSize:   4096,
		TableRange:  8,
	}
}

// Layer is one quantized dense layer. Weights are at WeightScale; biases are
// pre-scaled to inScale·WeightScale so they add directly into the
// accumulator.
//
// The weights live in one row-major slab, which is what inference reads; W[i]
// is a view of row i of it. Writing W[i][j] changes the layer, pointing W[i]
// at another slice does not.
type Layer struct {
	In, Out int
	W       [][]int64 // [Out][In], scale = weightScale
	B       []int64   // [Out], scale = inScale·weightScale
	Act     nn.Activation

	w []int64 // the slab: row i is w[i*In : (i+1)*In]

	accScale int64 // input scale · weightScale: scale of the accumulator
	outScale int64 // scale of this layer's outputs

	// LUT for tanh/sigmoid: entry i is the activation, at outScale, of the
	// accumulator value tblMin + i·(tblMax-tblMin)/(len-1). The array is
	// shared with every layer of the same tableKey and never written.
	table    []int64
	tblRange float64 // Config.TableRange the table was built over
	tblMin   int64   // accumulator value of table[0]
	tblMax   int64   // accumulator value of table[len-1]
	// tblShift is log2(tblMax-tblMin) when that span is a power of two — it
	// is whenever the accumulator scale and the table range are — and 0
	// otherwise; interpolation then shifts and masks instead of dividing.
	tblShift uint
}

// AccScale returns the fixed-point scale of the layer's accumulator
// (inScale · weightScale).
func (l *Layer) AccScale() int64 { return l.accScale }

// OutScale returns the fixed-point scale of the layer's outputs.
func (l *Layer) OutScale() int64 { return l.outScale }

// TableData exposes the activation lookup table and the accumulator values
// of its first and last entries; the table is nil for layers that need none.
// Code generation inlines this data into the emitted module. The slice is
// shared between layers and Programs: callers must not write to it.
func (l *Layer) TableData() (table []int64, tblMin, tblMax int64) {
	return l.table, l.tblMin, l.tblMax
}

// ActID spells out, in identifier characters, everything the layer's
// activation step depends on: activation, accumulator and output scale, and
// for LUT layers table size and range (shortest exact decimal, "." as p, "-"
// as m). Layers with equal IDs activate identically and can share a helper.
func (l *Layer) ActID() string {
	id := fmt.Sprintf("%s_a%d_o%d", l.Act, l.accScale, l.outScale)
	if l.table != nil {
		r := strconv.FormatFloat(l.tblRange, 'g', -1, 64)
		id += fmt.Sprintf("_n%d_r%s", len(l.table), identChars.Replace(r))
	}
	return id
}

var identChars = strings.NewReplacer(".", "p", "-", "m", "+", "")

// Program is an executable integer snapshot of a float network. The struct
// itself is immutable after Quantize; all mutable execution state lives in an
// Arena, so one Program can serve many goroutines concurrently as long as
// each supplies its own Arena (InferWith). The convenience Infer method uses
// a Program-owned arena and therefore remains single-threaded.
type Program struct {
	Layers      []*Layer
	InputScale  int64
	OutputScale int64

	macs     int
	maxWidth int
	arena    Arena // backs Infer; not used by InferWith
}

// Arena is the reusable scratch an inference needs: two ping-pong activation
// buffers sized to the widest layer. A zero Arena is valid and grows on first
// use; after that, steady-state inference performs zero heap allocations
// (guarded by testing.AllocsPerRun assertions in quant and core). Arenas are
// not goroutine-safe — use one per worker.
type Arena struct {
	bufs [2][]int64
}

// Reserve grows the arena to serve programs up to the given layer width.
func (a *Arena) Reserve(width int) {
	if cap(a.bufs[0]) < width {
		a.bufs[0] = make([]int64, width)
		a.bufs[1] = make([]int64, width)
	}
}

// MaxWidth returns the widest layer dimension, i.e. the arena width InferWith
// requires.
func (p *Program) MaxWidth() int { return p.maxWidth }

// Quantize converts net into an integer Program under cfg. It panics on
// non-positive scales and on scales so large that a unit value no longer fits
// the 63-bit products inference forms (accumulator scale × output scale in
// rescale, table span × table size in the LUT), which would be silent
// precision bugs otherwise.
func Quantize(net *nn.Network, cfg Config) *Program {
	if cfg.InputScale <= 0 || cfg.WeightScale <= 0 || cfg.ActScale <= 0 || cfg.OutputScale <= 0 {
		panic("quant: scales must be positive")
	}
	if cfg.TableSize < 2 {
		panic("quant: table size must be at least 2")
	}
	p := &Program{InputScale: cfg.InputScale, OutputScale: cfg.OutputScale}
	inScale := cfg.InputScale
	maxWidth := 0
	for li, fl := range net.Layers {
		outScale := cfg.ActScale
		if li == len(net.Layers)-1 {
			outScale = cfg.OutputScale
		}
		accScale, ok := mul63(inScale, cfg.WeightScale)
		if ok {
			_, ok = mul63(accScale, outScale)
		}
		if !ok {
			panic(fmt.Sprintf("quant: layer %d scales %d·%d·%d overflow 63 bits", li, inScale, cfg.WeightScale, outScale))
		}
		l := &Layer{
			In: fl.In, Out: fl.Out, Act: fl.Act,
			accScale: accScale,
			outScale: outScale,
		}
		l.w = make([]int64, fl.Out*fl.In)
		l.W = make([][]int64, fl.Out)
		l.B = make([]int64, fl.Out)
		for i := range fl.W {
			row := l.w[i*fl.In : (i+1)*fl.In : (i+1)*fl.In]
			for j, w := range fl.W[i] {
				row[j] = roundToInt(w * float64(cfg.WeightScale))
			}
			l.W[i] = row
			l.B[i] = roundToInt(fl.B[i] * float64(l.accScale))
		}
		if fl.Act == nn.Tanh || fl.Act == nn.Sigmoid {
			l.useTable(cfg.TableSize, cfg.TableRange)
		}
		p.Layers = append(p.Layers, l)
		p.macs += fl.In * fl.Out
		if fl.In > maxWidth {
			maxWidth = fl.In
		}
		if fl.Out > maxWidth {
			maxWidth = fl.Out
		}
		inScale = outScale
	}
	p.maxWidth = maxWidth
	p.arena.Reserve(maxWidth)
	return p
}

func roundToInt(x float64) int64 {
	return int64(math.Round(x))
}

// mul63 returns a·b for positive a and b and whether it fits in 63 bits.
func mul63(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// useTable attaches the shared LUT for l's activation and scales, covering
// pre-activation values in [-tblRange, tblRange]. It panics unless the two
// products lookup forms over the table span 2·tblMax — span·(size-1) for the
// index, span·(hi-lo) ≤ span·2·outScale for the interpolation — fit in 63
// bits; the check keeps a factor of two inside that so its own float rounding
// cannot matter.
func (l *Layer) useTable(size int, tblRange float64) {
	span := 2 * tblRange * float64(l.accScale)
	if !(span*math.Max(float64(size-1), 2*float64(l.outScale)) < 1<<62) {
		panic(fmt.Sprintf("quant: table range %g at scales %d→%d with %d entries overflows 63 bits", tblRange, l.accScale, l.outScale, size))
	}
	l.table = sharedTable(tableKey{l.Act, size, tblRange, l.accScale, l.outScale})
	l.tblRange = tblRange
	l.tblMax = roundToInt(tblRange * float64(l.accScale))
	l.tblMin = -l.tblMax
	if s := uint64(l.tblMax - l.tblMin); bits.OnesCount64(s) == 1 {
		l.tblShift = uint(bits.TrailingZeros64(s))
	}
}

// tableKey is everything an activation table's content depends on.
type tableKey struct {
	act                nn.Activation
	size               int
	tblRange           float64
	accScale, outScale int64
}

// maxMemoEntries bounds the table memo at 2 MB (64 tables of the default
// size). A run meets a handful of keys — one per (activation, output scale)
// of its model zoo — so the bound only stops a caller that invents configs
// without end; a table that does not fit is computed for its Program alone.
const maxMemoEntries = 1 << 18

var tableMemo = struct {
	sync.Mutex
	m       map[tableKey][]int64
	entries int
}{m: map[tableKey][]int64{}}

// sharedTable returns the LUT for k: entry i maps the pre-activation value
// -R + 2R·i/(size-1) to the activated output at outScale. It is computed
// under the lock, so concurrent Quantize calls of one key share one array.
func sharedTable(k tableKey) []int64 {
	tableMemo.Lock()
	defer tableMemo.Unlock()
	if t, ok := tableMemo.m[k]; ok {
		return t
	}
	t := make([]int64, k.size)
	for i := range t {
		frac := float64(i) / float64(k.size-1)
		x := -k.tblRange + 2*k.tblRange*frac
		t[i] = roundToInt(k.act.Apply(x) * float64(k.outScale))
	}
	if tableMemo.entries+k.size <= maxMemoEntries {
		tableMemo.m[k] = t
		tableMemo.entries += k.size
	}
	return t
}

// InputSize returns the program's input dimension.
func (p *Program) InputSize() int { return p.Layers[0].In }

// OutputSize returns the program's output dimension.
func (p *Program) OutputSize() int { return p.Layers[len(p.Layers)-1].Out }

// MACs returns the multiply-accumulate count of one inference.
func (p *Program) MACs() int { return p.macs }

// NumParams returns the number of quantized parameters, used to cost
// snapshot installation.
func (p *Program) NumParams() int {
	n := 0
	for _, l := range p.Layers {
		n += l.In*l.Out + l.Out
	}
	return n
}

// Infer runs integer-only inference: in must be at InputScale, out receives
// values at OutputScale. Both slices must match the program's dimensions.
// The hot path performs no allocation and no floating-point arithmetic. It
// uses the Program's internal arena and is therefore not goroutine-safe; use
// InferWith with a per-worker Arena for concurrent execution.
func (p *Program) Infer(in, out []int64) {
	p.InferWith(&p.arena, in, out)
}

// InferWith is Infer against caller-owned scratch: the same integer-only hot
// path, but with all mutable state in a, so distinct goroutines can execute
// one Program concurrently with distinct arenas.
func (p *Program) InferWith(a *Arena, in, out []int64) {
	if len(in) != p.InputSize() {
		panic(fmt.Sprintf("quant: input size %d, want %d", len(in), p.InputSize()))
	}
	if len(out) != p.OutputSize() {
		panic(fmt.Sprintf("quant: output size %d, want %d", len(out), p.OutputSize()))
	}
	a.Reserve(p.maxWidth)
	cur := in
	for li, l := range p.Layers {
		dst := a.bufs[li%2][:l.Out]
		if li == len(p.Layers)-1 {
			dst = out
		}
		l.dense(cur, dst)
		l.activate(dst)
		cur = dst
	}
}

// dense writes the accumulators B + W·x into dst (len Out); x has len In. It
// walks the slab four rows at a time (dot4), then one row at a time for the
// Out%4 that remain. The sums are the ones a plain row-by-row loop forms:
// each accumulator adds its own row's products in order, and two's-complement
// addition is associative and commutative, so adding the bias last and
// interleaving four rows changes no bit.
func (l *Layer) dense(x, dst []int64) {
	n := len(x)
	w, b := l.w, l.B[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		a0, a1, a2, a3 := dot4(w[:4*n], x)
		w = w[4*n:]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = b[i]+a0, b[i+1]+a1, b[i+2]+a2, b[i+3]+a3
	}
	for ; i < len(dst); i++ {
		r := w[:n]
		w = w[n:]
		acc := b[i]
		for j, xj := range x[:len(r)] {
			acc += r[j] * xj
		}
		dst[i] = acc
	}
}

// dot4 returns the dot products of x with the four consecutive rows held in
// rows. Each x[j] is loaded once for four multiply-adds on independent
// accumulators, and every row is cut to one common length before the loop,
// which therefore compiles without a bounds check. It is a function of its
// own so that nothing but the loop's operands competes for registers.
func dot4(rows, x []int64) (a0, a1, a2, a3 int64) {
	n := len(x)
	r0, r1, r2, r3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for j, xj := range x[:len(r0)] {
		a0 += r0[j] * xj
		a1 += r1[j] * xj
		a2 += r2[j] * xj
		a3 += r3[j] * xj
	}
	return
}

// activate converts, in place, a layer's finished accumulators (scale
// accScale) to its output scale through the activation, using integer
// arithmetic only.
func (l *Layer) activate(v []int64) {
	switch l.Act {
	case nn.ReLU:
		for i, acc := range v {
			if acc < 0 {
				v[i] = 0
			} else {
				v[i] = rescale(acc, l.accScale, l.outScale)
			}
		}
	case nn.Tanh, nn.Sigmoid:
		l.lookup(v)
	default: // Linear
		for i, acc := range v {
			v[i] = rescale(acc, l.accScale, l.outScale)
		}
	}
}

// rescale converts v from scale `from` to scale `to` with rounding, in
// integer arithmetic. Callers guarantee |v|·to stays within int64: Quantize
// admits only scales whose product from·to does, which covers accumulators of
// magnitude up to 1.
func rescale(v, from, to int64) int64 {
	if from == to {
		return v
	}
	n := v * to
	if n >= 0 {
		return (n + from/2) / from
	}
	return (n - from/2) / from
}

// lookup replaces each accumulator value in v by the layer's LUT evaluated
// there with linear interpolation, clamping outside the covered range (where
// tanh/sigmoid are saturated anyway). With a power-of-two span the two
// divisions become a shift and a mask, which equal Go's truncating / and %
// on non-negative numerators; the index numerator always is one, the
// interpolation numerator is wherever the table does not fall.
func (l *Layer) lookup(v []int64) {
	table, tblMin, tblMax := l.table, l.tblMin, l.tblMax
	last := int64(len(table) - 1)
	span, shift := tblMax-tblMin, l.tblShift
	for i, acc := range v {
		if acc <= tblMin {
			v[i] = table[0]
			continue
		}
		if acc >= tblMax {
			v[i] = table[last]
			continue
		}
		num := (acc - tblMin) * last
		var idx, rem int64
		if shift != 0 {
			idx, rem = num>>shift, num&(span-1)
		} else {
			idx, rem = num/span, num%span
		}
		lo, hi := table[idx], table[idx+1]
		if d := (hi - lo) * rem; shift != 0 && d >= 0 {
			v[i] = lo + d>>shift
		} else {
			v[i] = lo + d/span
		}
	}
}

// QuantizeInput converts float inputs to fixed point at InputScale, writing
// into dst (allocated when nil).
func (p *Program) QuantizeInput(in []float64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(in))
	}
	for i, x := range in {
		dst[i] = roundToInt(x * float64(p.InputScale))
	}
	return dst
}

// DequantizeOutput converts fixed-point outputs at OutputScale to floats,
// writing into dst (allocated when nil).
func (p *Program) DequantizeOutput(out []int64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(out))
	}
	for i, v := range out {
		dst[i] = float64(v) / float64(p.OutputScale)
	}
	return dst
}

// InferFloat is a convenience wrapper: float in, float out, with
// quantize/dequantize at the edges. The interior remains integer-only.
func (p *Program) InferFloat(in []float64) []float64 {
	qi := p.QuantizeInput(in, nil)
	qo := make([]int64, p.OutputSize())
	p.Infer(qi, qo)
	return p.DequantizeOutput(qo, nil)
}

// AccuracyLoss measures the mean absolute deviation between the float
// network and its quantized program over the given inputs, normalized by the
// observed float output range — the quantity plotted in Figure 7. It returns
// 0 for no inputs.
func AccuracyLoss(net *nn.Network, p *Program, inputs [][]float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	oMin, oMax := math.Inf(1), math.Inf(-1)
	var sum float64
	var count int
	fo := make([]float64, net.OutputSize())
	for _, in := range inputs {
		net.Forward(in, fo)
		qo := p.InferFloat(in)
		for i := range fo {
			sum += math.Abs(fo[i] - qo[i])
			count++
			if fo[i] < oMin {
				oMin = fo[i]
			}
			if fo[i] > oMax {
				oMax = fo[i]
			}
		}
	}
	rangeOut := oMax - oMin
	if rangeOut < 1e-9 {
		rangeOut = 1
	}
	return sum / float64(count) / rangeOut
}
