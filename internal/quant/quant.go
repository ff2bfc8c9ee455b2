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
// A table follows from the activation and the layer's output scale — never
// from a weight — so tables are memoised process-wide by those two values and
// shared, read-only, between layers and Programs: re-quantizing a retuned
// network only rounds its weights.
//
// Inference is one kernel (InferWith): per layer a dense step over a
// contiguous weight slab (one 16-bit multiply-add assembly call on AVX2 where
// the sums provably fit in int32, four rows at a time otherwise), then one
// activation pass over the finished accumulators (on AVX2, four LUT lanes
// per step of one assembly call).
// DESIGN.md §4k "Snapshot execution" says why it computes, bit for bit, what
// the plain loop kept in reference_test.go does.
package quant

import (
	"fmt"
	"math"
	"sync"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// The fixed-point scales and the activation table are constants; the one
// knob is the paper's scale-up factor C (Config.OutputScale).
const (
	// InputScale is the fixed-point scale of network inputs:
	// x_int = round(x_float · InputScale).
	InputScale = 1 << 12
	// weightScale is the per-weight fixed-point scale.
	weightScale = 1 << 12
	// actScale is the scale of hidden-layer outputs, which are the next
	// layer's inputs, so it equals InputScale.
	actScale = InputScale
	// AccScale is the scale of every layer's accumulator: its input scale
	// (InputScale or actScale) times weightScale.
	AccScale = InputScale * weightScale
	// MaxOutputScale bounds C so that every product inference forms fits
	// in 63 bits (the assertions below).
	MaxOutputScale = 1 << 24

	// Activation tables have tableSize entries over pre-activation values
	// in [-tableRange, tableRange], where tanh/sigmoid saturate at float
	// precision: accumulators tblMin to tblMax, a span of 2^tblShift.
	tableSize  = 4096
	tableRange = 8
	tblMax     = tableRange * AccScale
	tblMin     = -tblMax
	tblShift   = 28
)

// Compile-time checks; a negative constant does not convert to uint.
const (
	// The table span is exactly 2^tblShift.
	_ = uint(tblMax-tblMin-1<<tblShift) + uint(1<<tblShift-(tblMax-tblMin))
	// rescale never scales up: C ≤ AccScale.
	_ = uint(AccScale - MaxOutputScale)
	// lookup forms span·(tableSize-1) for the index and span·|hi-lo| ≤
	// span·2C for the interpolation.
	_ = uint(1<<62 - 1 - (tblMax-tblMin)*max(tableSize-1, 2*MaxOutputScale))
	// lookupShift is exact while span ≤ 2³¹, last < 2³² and every step
	// |hi-lo| ≤ 2C is below 2³¹.
	_ = uint(1<<31-(tblMax-tblMin)) + uint(1<<32-tableSize) + uint(1<<31-1-2*MaxOutputScale)
)

// Config controls quantization precision.
type Config struct {
	// OutputScale is the paper's scale-up factor C applied to the final
	// layer: y_int = round(y_float · C), 1 ≤ C ≤ MaxOutputScale. Sweeping
	// C reproduces Figure 7.
	OutputScale int64
}

// DefaultConfig returns the configuration used by all experiments: 1000×
// output scaling (the paper's example).
func DefaultConfig() Config {
	return Config{OutputScale: 1000}
}

// Layer is one quantized dense layer. Weights are at weightScale; biases are
// pre-scaled to AccScale so they add directly into the accumulator.
//
// The weights live in one row-major slab, and on the packed tier in an int16
// copy of it, which is what inference reads; Weight reads the slab, Quantize
// writes both, and after it SetWeight is the one write path.
type Layer struct {
	In, Out int
	B       []int64 // [Out], at AccScale
	Act     nn.Activation

	w []int64 // the slab, [Out][In] at weightScale: row i is w[i*In : (i+1)*In]
	// w16 is the slab again as int16 rows of stride16(In) entries, zeros past
	// In, while the layer is on the packed tier: every weight fits in int16
	// and every row's Σ|w| is below 2¹⁶ (fitsPacked). Quantize builds it, the
	// rows of all a Program's packed layers in one allocation; a SetWeight
	// that breaks either fact sets it to nil, for good.
	w16 []int16

	outScale int64 // scale of this layer's outputs

	// LUT for tanh/sigmoid: entry i is the activation, at outScale, of the
	// accumulator value tblMin + i·(tblMax-tblMin)/(len-1). The array is
	// shared with every layer of the same tableKey and never written; its
	// capacity holds one more entry equal to the last (sharedTable).
	table []int64
}

// Weight returns the weight of input j in output row i, at weightScale.
func (l *Layer) Weight(i, j int) int64 { return l.row(i)[j] }

// SetWeight sets the weight of input j in output row i to v, at weightScale;
// the next inference uses it. A v outside int16, or one that takes row i's
// Σ|w| to 2¹⁶ or more, takes the layer off the packed tier for good.
func (l *Layer) SetWeight(i, j int, v int64) {
	l.row(i)[j] = v
	if l.w16 == nil {
		return
	}
	if !fitsPacked(l.row(i)) {
		l.w16 = nil
		return
	}
	l.w16[i*stride16(l.In)+j] = int16(v)
}

func (l *Layer) row(i int) []int64 { return l.w[i*l.In : (i+1)*l.In] }

// stride16 is the length of an int16 row of n weights: n rounded up to a
// whole number of 16-column steps, at least one.
func stride16(n int) int { return (max(n, 1) + 15) &^ 15 }

// fitsPacked reports whether a row may run on VPMADDWD: every weight fits in
// int16 and Σ|w| < 2¹⁶. Then with every input in int16 no partial sum of the
// row reaches 2¹⁶·2¹⁵ = 2³¹ in magnitude, so the int32 lanes never wrap.
func fitsPacked(row []int64) bool {
	sum := int64(0)
	for _, w := range row {
		if w != int64(int16(w)) {
			return false
		}
		sum += max(w, -w)
	}
	return sum < 1<<16
}

// packedSize is the length of the layer's int16 rows when every row fits the
// packed tier, and 0 when one does not.
func (l *Layer) packedSize() int {
	for i := 0; i < l.Out; i++ {
		if !fitsPacked(l.row(i)) {
			return 0
		}
	}
	return l.Out * stride16(l.In)
}

// pack16 copies the layer's weights into w16, packedSize() zeroed entries,
// as int16 rows of stride16(In) and puts the layer on the packed tier.
func (l *Layer) pack16(w16 []int16) {
	s := stride16(l.In)
	for i := 0; i < l.Out; i++ {
		for j, w := range l.row(i) {
			w16[i*s+j] = int16(w)
		}
	}
	l.w16 = w16
}

// OutScale returns the fixed-point scale of the layer's outputs.
func (l *Layer) OutScale() int64 { return l.outScale }

// TableData exposes the activation lookup table and the accumulator values
// of its first and last entries; the table is nil for layers that need none.
// Code generation inlines this data into the emitted module. The slice is
// shared between layers and Programs: callers must not write to it.
func (l *Layer) TableData() (table []int64, lo, hi int64) {
	return l.table, tblMin, tblMax
}

// ActID spells out, in identifier characters, everything the layer's
// activation step depends on: activation, accumulator and output scale, and
// for LUT layers table size and range. Layers with equal IDs activate
// identically and can share a helper.
func (l *Layer) ActID() string {
	if l.table == nil {
		return fmt.Sprintf("%s_a%d_o%d", l.Act, AccScale, l.outScale)
	}
	return fmt.Sprintf("%s_a%d_o%d_n%d_r%d", l.Act, AccScale, l.outScale, tableSize, tableRange)
}

// Program is an executable integer snapshot of a float network. The struct
// itself is immutable after Quantize; all mutable execution state lives in an
// Arena, so one Program can serve many goroutines concurrently as long as
// each supplies its own Arena (InferWith). The convenience Infer method uses
// a Program-owned arena and therefore remains single-threaded.
type Program struct {
	Layers      []*Layer
	OutputScale int64

	macs     int
	maxWidth int
	arena    Arena // backs Infer; not used by InferWith
}

// Arena is the reusable scratch an inference needs: two ping-pong activation
// buffers sized to the widest layer, and the int16 copy of a layer's input
// that the packed tier multiplies. A zero Arena is valid and grows on first
// use; after that, steady-state inference performs zero heap allocations
// (guarded by testing.AllocsPerRun assertions in quant and core). Arenas are
// not goroutine-safe — use one per worker.
type Arena struct {
	bufs [2][]int64
	x16  []int16
}

// Reserve grows the arena to serve programs up to the given layer width.
func (a *Arena) Reserve(width int) {
	if cap(a.bufs[0]) < width {
		bufs := make([]int64, 2*width)
		a.bufs[0], a.bufs[1] = bufs[:width:width], bufs[width:]
		a.x16 = make([]int16, stride16(width))
	}
}

// MaxWidth returns the widest layer dimension, i.e. the arena width InferWith
// requires.
func (p *Program) MaxWidth() int { return p.maxWidth }

// Quantize converts net into an integer Program under cfg. It panics unless
// 1 ≤ cfg.OutputScale ≤ MaxOutputScale, the range in which every product
// inference forms fits in 63 bits; outside it they would be silent precision
// bugs.
func Quantize(net *nn.Network, cfg Config) *Program {
	if cfg.OutputScale < 1 || cfg.OutputScale > MaxOutputScale {
		panic(fmt.Sprintf("quant: output scale %d outside [1, %d]", cfg.OutputScale, MaxOutputScale))
	}
	p := &Program{OutputScale: cfg.OutputScale}
	maxWidth := 0
	for li, fl := range net.Layers {
		outScale := int64(actScale)
		if li == len(net.Layers)-1 {
			outScale = cfg.OutputScale
		}
		l := &Layer{In: fl.In, Out: fl.Out, Act: fl.Act, outScale: outScale}
		l.w = make([]int64, fl.Out*fl.In)
		l.B = make([]int64, fl.Out)
		for i := range fl.W {
			row := l.row(i)
			for j, w := range fl.W[i] {
				row[j] = roundToInt(w * weightScale)
			}
			l.B[i] = roundToInt(fl.B[i] * AccScale)
		}
		if fl.Act == nn.Tanh || fl.Act == nn.Sigmoid {
			l.table = sharedTable(tableKey{fl.Act, outScale})
		}
		p.Layers = append(p.Layers, l)
		p.macs += fl.In * fl.Out
		maxWidth = max(maxWidth, fl.In, fl.Out)
	}
	p.maxWidth = maxWidth
	p.arena.Reserve(maxWidth)
	n := 0
	for _, l := range p.Layers {
		n += l.packedSize()
	}
	w16 := make([]int16, n) // one allocation for every packed layer
	for _, l := range p.Layers {
		if size := l.packedSize(); size > 0 {
			l.pack16(w16[:size:size])
			w16 = w16[size:]
		}
	}
	return p
}

func roundToInt(x float64) int64 {
	return int64(math.Round(x))
}

// tableKey is everything an activation table's content depends on.
type tableKey struct {
	act      nn.Activation
	outScale int64
}

// maxMemoEntries bounds the table memo at 2 MB (64 tables). A run meets a
// handful of keys — one per (activation, output scale) of its model zoo — so
// the bound only stops a caller that invents output scales without end (lfgen
// takes C from its input); a table that does not fit is computed for its
// Program alone.
const maxMemoEntries = 1 << 18

var tableMemo = struct {
	sync.Mutex
	m       map[tableKey][]int64
	entries int
}{m: map[tableKey][]int64{}}

// sharedTable returns the LUT for k: entry i maps the pre-activation value
// -R + 2R·i/(tableSize-1), R = tableRange, to the activated output at
// outScale. It is computed under the lock, so concurrent Quantize calls of
// one key share one array. One more backing entry, past its length, copies
// the last for lookup.
func sharedTable(k tableKey) []int64 {
	tableMemo.Lock()
	defer tableMemo.Unlock()
	if t, ok := tableMemo.m[k]; ok {
		return t
	}
	t := make([]int64, tableSize+1)
	for i := range t[:tableSize] {
		frac := float64(i) / (tableSize - 1)
		x := -tableRange + 2*tableRange*frac
		t[i] = roundToInt(k.act.Apply(x) * float64(k.outScale))
	}
	t[tableSize] = t[tableSize-1]
	t = t[:tableSize]
	if tableMemo.entries+tableSize <= maxMemoEntries {
		tableMemo.m[k] = t
		tableMemo.entries += tableSize
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
		l.dense(cur, a.x16, dst)
		l.activate(dst)
		cur = dst
	}
}

// dense writes the accumulators B + W·x into dst (len Out); x has len In and
// x16 at least stride16(In) entries of scratch. Where the CPU has AVX2 and
// the layer is on the packed tier, one dense16 call packs x into x16 and, if
// every x fits in int16, does the whole layer. Otherwise it walks the slab
// four rows at a time (dot4), then one row at a time for the Out%4 that
// remain. The sums are the ones a plain row-by-row loop forms: each
// accumulator adds its own row's products, and two's-complement addition is
// associative and commutative, so adding the bias last and interleaving rows
// and columns changes no bit.
func (l *Layer) dense(x []int64, x16 []int16, dst []int64) {
	n := len(x)
	if packed && l.w16 != nil {
		s := stride16(n)
		if dense16(l.w16[:len(dst)*s], l.B[:len(dst)], x, x16[:s], dst) {
			return
		}
	}
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

// activate converts, in place, a layer's finished accumulators (at
// AccScale) to its output scale through the activation, using integer
// arithmetic only.
func (l *Layer) activate(v []int64) {
	switch l.Act {
	case nn.ReLU:
		for i, acc := range v {
			if acc < 0 {
				v[i] = 0
			} else {
				v[i] = rescale(acc, l.outScale)
			}
		}
	case nn.Tanh, nn.Sigmoid:
		l.lookup(v)
	default: // Linear
		for i, acc := range v {
			v[i] = rescale(acc, l.outScale)
		}
	}
}

// rescale converts v from AccScale to scale `to` ≤ AccScale, rounding half
// away from zero, exactly for every int64 v: |v| splits into a multiple of
// AccScale and a remainder, so no product passes 2⁴⁸, and the result is at
// most |v| in magnitude.
func rescale(v, to int64) int64 {
	if to == AccScale {
		return v
	}
	m := uint64(v)
	if v < 0 {
		m = -m
	}
	n := int64(m/AccScale*uint64(to) + (m%AccScale*uint64(to)+AccScale/2)/AccScale)
	if v < 0 {
		return -n
	}
	return n
}

// lookup replaces each accumulator value in v by the layer's LUT evaluated
// there with linear interpolation, clamping outside the covered range (where
// tanh/sigmoid are saturated anyway).
//
// The span is 2^tblShift, so no lane takes a data-dependent branch: one pass
// clamps with min/max (apart from the table reads, so they compile to
// conditional moves), a second divides by shifts. At tblMax it reads the
// padded entry with remainder 0. A negative d (a falling table) is biased by
// span-1 to truncate as / does. On AVX2, lookupShift first runs that arm four
// lanes at a time over len(v) &^ 3 lanes (exact within the bounds asserted at
// the constants), and the loops take the lanes left.
func (l *Layer) lookup(v []int64) {
	table := l.table
	last := int64(len(table) - 1)
	padded := table[:last+2]
	if packed {
		lookupShift(v, padded, tblMin, tblMax, last, tblShift)
		v = v[len(v)&^3:]
	}
	for i, acc := range v {
		v[i] = min(max(acc, tblMin), tblMax) - tblMin
	}
	const mask = 1<<tblShift - 1
	for i, off := range v {
		num := off * last
		lo, hi := padded[num>>tblShift], padded[num>>tblShift+1]
		d := (hi - lo) * (num & mask)
		v[i] = lo + (d+d>>63&mask)>>tblShift
	}
}

// QuantizeInput converts float inputs to fixed point at InputScale, writing
// into dst (allocated when nil).
func (p *Program) QuantizeInput(in []float64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(in))
	}
	for i, x := range in {
		dst[i] = roundToInt(x * InputScale)
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
