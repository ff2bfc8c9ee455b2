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
package quant

import (
	"fmt"
	"math"
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
type Layer struct {
	In, Out int
	W       [][]int64 // [Out][In], scale = weightScale
	B       []int64   // [Out], scale = inScale·weightScale
	Act     nn.Activation

	inScale  int64 // scale of this layer's inputs
	accScale int64 // inScale·weightScale: scale of the accumulator
	outScale int64 // scale of this layer's outputs

	// LUT for tanh/sigmoid: entry i is the activation, at outScale, of the
	// accumulator value tblMin + i·(tblMax-tblMin)/(len-1). The array is
	// shared with every layer of the same tableKey and never written.
	table    []int64
	tblRange float64 // Config.TableRange the table was built over
	tblMin   int64   // accumulator value of table[0]
	tblMax   int64   // accumulator value of table[len-1]
}

// InScale returns the fixed-point scale of the layer's inputs.
func (l *Layer) InScale() int64 { return l.inScale }

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
// each supplies its own Arena (InferWith/InferBatch). The convenience Infer
// method uses a Program-owned arena and therefore remains single-threaded.
type Program struct {
	Layers      []*Layer
	InputScale  int64
	OutputScale int64

	macs     int
	maxWidth int
	arena    Arena // backs Infer; not used by InferWith/InferBatch
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

// NewArena returns an arena pre-sized for this program.
func (p *Program) NewArena() *Arena {
	a := &Arena{}
	a.Reserve(p.maxWidth)
	return a
}

// Quantize converts net into an integer Program under cfg. It panics on
// non-positive scales, which would be silent precision bugs otherwise.
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
		l := &Layer{
			In: fl.In, Out: fl.Out, Act: fl.Act,
			inScale:  inScale,
			accScale: inScale * cfg.WeightScale,
			outScale: outScale,
		}
		l.W = make([][]int64, fl.Out)
		l.B = make([]int64, fl.Out)
		for i := range fl.W {
			l.W[i] = make([]int64, fl.In)
			for j, w := range fl.W[i] {
				l.W[i][j] = roundToInt(w * float64(cfg.WeightScale))
			}
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

// useTable attaches the shared LUT for l's activation and scales, covering
// pre-activation values in [-tblRange, tblRange].
func (l *Layer) useTable(size int, tblRange float64) {
	l.table = sharedTable(tableKey{l.Act, size, tblRange, l.accScale, l.outScale})
	l.tblRange = tblRange
	l.tblMax = roundToInt(tblRange * float64(l.accScale))
	l.tblMin = -l.tblMax
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
	p.inferInto(a, in, out)
}

// inferInto is the validated inner loop; a must already cover maxWidth.
func (p *Program) inferInto(a *Arena, in, out []int64) {
	cur := in
	for li, l := range p.Layers {
		dst := a.bufs[li%2][:l.Out]
		if li == len(p.Layers)-1 {
			dst = out
		}
		for i := 0; i < l.Out; i++ {
			acc := l.B[i]
			w := l.W[i]
			for j := 0; j < l.In; j++ {
				acc += w[j] * cur[j]
			}
			dst[i] = l.activate(acc)
		}
		cur = dst
	}
}

// InferBatch runs n inferences over densely packed rows: in holds n
// consecutive input vectors (stride InputSize) and out receives n consecutive
// output vectors (stride OutputSize). Results are identical to n sequential
// Infer calls; the batch form exists so datapath callers amortize the lookup
// and CPU-accounting overhead per batch instead of per query, and performs
// zero heap allocations in steady state.
func (p *Program) InferBatch(a *Arena, in, out []int64, n int) {
	is, os := p.InputSize(), p.OutputSize()
	if len(in) != n*is {
		panic(fmt.Sprintf("quant: batch input len %d, want %d×%d", len(in), n, is))
	}
	if len(out) != n*os {
		panic(fmt.Sprintf("quant: batch output len %d, want %d×%d", len(out), n, os))
	}
	a.Reserve(p.maxWidth)
	for q := 0; q < n; q++ {
		p.inferInto(a, in[q*is:(q+1)*is], out[q*os:(q+1)*os])
	}
}

// activate converts an accumulator value (scale accScale) to the layer's
// output scale through the activation, using integer arithmetic only.
func (l *Layer) activate(acc int64) int64 {
	switch l.Act {
	case nn.ReLU:
		if acc < 0 {
			return 0
		}
		return rescale(acc, l.accScale, l.outScale)
	case nn.Tanh, nn.Sigmoid:
		return l.lookup(acc)
	default: // Linear
		return rescale(acc, l.accScale, l.outScale)
	}
}

// rescale converts v from scale `from` to scale `to` with rounding, in
// integer arithmetic. Callers guarantee |v|·to stays within int64 (enforced
// by the bounded scales in Config).
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

// lookup evaluates the layer's LUT at accumulator value acc with linear
// interpolation, clamping outside the covered range (where tanh/sigmoid are
// saturated anyway).
func (l *Layer) lookup(acc int64) int64 {
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
