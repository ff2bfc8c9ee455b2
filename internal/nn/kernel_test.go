package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// kernelZoo is the shapes the kernels are checked on: the paper's models,
// the fleet scenario's 4→8→1 and its bloated 4→2048→1, and an odd-sized net
// so every Out%4 remainder and a multi-output last layer are exercised.
var kernelZoo = []struct {
	name  string
	sizes []int
}{
	{"aurora", []int{30, 32, 16, 1}},
	{"mocc", []int{30, 64, 32, 1}},
	{"ffnn", []int{8, 5, 5, 1}},
	{"fleet", []int{4, 8, 1}},
	{"bloated", []int{4, 2048, 1}},
	{"odd", []int{5, 7, 3}},
}

// kernelInputs returns n inputs of the given width that between them reach
// both arms of tanh (tanhArm's 0 < |x| < 0.625 and math.Tanh's beyond) in the
// first layer, plus an all-zero one (TestKernelInputsReachBothArms).
func kernelInputs(r *rand.Rand, n, width int) [][]float64 {
	xs := make([][]float64, n)
	for k := range xs {
		xs[k] = make([]float64, width)
		scale := []float64{0, 0.05, 1, 8}[k%4]
		for j := range xs[k] {
			xs[k][j] = (r.Float64()*2 - 1) * scale
		}
	}
	return xs
}

// archTanh reports whether math.Tanh is assembly on this GOARCH rather than
// the pure-Go code tanhArm copies, so the two may differ in the last bit.
const archTanh = runtime.GOARCH == "s390x"

// referenceForward is the network's definition written out plainly: each sum
// starts from its bias and adds its row's products in index order, and tanh
// is math.Tanh.
func referenceForward(n *Network, in []float64) []float64 {
	cur := in
	for _, l := range n.Layers {
		out := make([]float64, l.Out)
		for i := range out {
			s := l.B[i]
			for j, xj := range cur {
				s += l.W[i][j] * xj
			}
			switch l.Act {
			case ReLU:
				if s < 0 {
					s = 0
				}
			case Tanh:
				s = math.Tanh(s)
			case Sigmoid:
				s = 1 / (1 + math.Exp(-s))
			}
			out[i] = s
		}
		cur = out
	}
	return cur
}

// checkInferBatch compares InferBatch and Infer with Forward, and Forward
// with referenceForward, bit for bit, at every batch size 1–9.
func checkInferBatch(t *testing.T, name string, n *Network, r *rand.Rand) {
	t.Helper()
	os := n.OutputSize()
	want := make([]float64, os)
	for size := 1; size <= 9; size++ {
		xs := kernelInputs(r, size, n.InputSize())
		ys := make([]float64, size*os)
		n.InferBatch(xs, ys)
		for k, x := range xs {
			n.Forward(x, want)
			got := n.Infer(x)
			ref := referenceForward(n, x)
			for i := range want {
				if !archTanh && math.Float64bits(want[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s: sample %d, output %d: Forward %x, reference %x", name, k, i, want[i], ref[i])
				}
				if math.Float64bits(ys[k*os+i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: batch of %d, sample %d, output %d: InferBatch %x, Forward %x",
						name, size, k, i, ys[k*os+i], want[i])
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: sample %d, output %d: Infer %x, Forward %x", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInferBatchMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, z := range kernelZoo {
		for _, hidden := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
			acts := make([]Activation, len(z.sizes)-1)
			for i := range acts {
				acts[i] = hidden
			}
			// The last layer cycles too, so each activation also runs as the
			// layer that writes the caller's buffer.
			acts[len(acts)-1] = (hidden + 1) % 4
			n := New(z.sizes, acts, 18)
			name := z.name + "/" + hidden.String()
			checkInferBatch(t, name, n, r)

			// The kernels read the slab training writes: interleave steps.
			opt := NewAdam(0.01)
			for step := 0; step < 3; step++ {
				x := kernelInputs(r, 6, n.InputSize())
				y := kernelInputs(r, 6, n.OutputSize())
				TrainBatch(n, opt, x, y, 1)
				checkInferBatch(t, name+"/trained", n, r)
			}
		}
	}
}

// checkTanh compares Tanh through Apply, applyAll and applyAll4 with
// math.Tanh on every x, bit for bit (NaN only as NaN).
func checkTanh(t testing.TB, xs []float64) {
	t.Helper()
	all := append([]float64(nil), xs...)
	Tanh.applyAll(all)
	all4 := make([]lanes, (len(xs)+3)/4)
	for i, x := range xs {
		all4[i/4][i%4] = x
	}
	Tanh.applyAll4(all4, make([]uint8, len(all4)))
	for i, x := range xs {
		want := math.Tanh(x)
		for _, got := range [...]struct {
			via string
			y   float64
		}{{"Apply", Tanh.Apply(x)}, {"applyAll", all[i]}, {"applyAll4", all4[i/4][i%4]}} {
			if !sameBits(got.y, want) {
				t.Fatalf("tanh(%x) via %s = %x, math.Tanh %x", x, got.via, got.y, want)
			}
		}
	}
}

// tanhEdges are the values where tanh's arms meet or its special cases sit:
// ±0, ±0.625 and their neighbours, the smallest subnormal, ±½·MAXLOG (where
// math.Tanh starts returning ±1) and their neighbours, ±Inf and NaN.
func tanhEdges() []float64 {
	const halfMaxLog = 44.014845965556525
	xs := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	for _, x := range []float64{0.625, halfMaxLog} {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range xs {
		xs = append(xs, -x)
	}
	return xs
}

func TestTanhMatchesMath(t *testing.T) {
	if archTanh {
		t.Skip("math.Tanh is assembly on " + runtime.GOARCH)
	}
	checkTanh(t, tanhEdges()) // bits, so tanh(-0) must be -0

	// A million values log-uniform over 1e-8…50, either sign: most land in
	// the inline arm, the rest in math.Tanh's exp arm and its ±1 clamp.
	r := rand.New(rand.NewSource(30))
	xs := make([]float64, 1<<20)
	lo, hi := math.Log(1e-8), math.Log(50)
	for i := range xs {
		xs[i] = math.Exp(lo + r.Float64()*(hi-lo))
		if r.Intn(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	checkTanh(t, xs)
}

func FuzzTanhMatchesMath(f *testing.F) {
	for _, x := range tanhEdges() {
		f.Add(x)
	}
	f.Add(0.3)
	f.Add(-2.5)
	f.Fuzz(func(t *testing.T, x float64) {
		if archTanh {
			t.Skip("math.Tanh is assembly on " + runtime.GOARCH)
		}
		checkTanh(t, []float64{x})
	})
}

// TestKernelInputsReachBothArms: on every shape of the zoo, with the weights
// New draws at TestInferBatchMatchesForward's seed, the first-layer sums of
// kernelInputs include zeros, values tanhArm computes and values it leaves to
// math.Tanh, so the kernel tests above exercise all three.
func TestKernelInputsReachBothArms(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, z := range kernelZoo {
		l := New(z.sizes, make([]Activation, len(z.sizes)-1), 18).Layers[0]
		var zero, inline, call int
		sum := make([]float64, l.Out)
		for _, x := range kernelInputs(r, 8, l.In) {
			l.sums(x, sum)
			for _, s := range sum {
				switch _, ok := tanhArm(s); {
				case s == 0:
					zero++
				case ok:
					inline++
				default:
					call++
				}
			}
		}
		if zero == 0 || inline == 0 || call == 0 {
			t.Errorf("%s: first-layer sums: %d zero, %d inline, %d math.Tanh; want each > 0", z.name, zero, inline, call)
		}
	}
}

// sameBits reports whether a and b are the same float64, NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// laneEdges returns groups of four lanes that mix tanhEdges and an arm value
// of either sign within one group: every window of four consecutive values,
// so each value takes every lane, then random picks.
func laneEdges(r *rand.Rand) []lanes {
	e := append(tanhEdges(), 0.3, -0.3)
	var v []lanes
	for i := range e {
		v = append(v, lanes{e[i], e[(i+1)%len(e)], e[(i+2)%len(e)], e[(i+3)%len(e)]})
	}
	for range 256 {
		v = append(v, lanes{e[r.Intn(len(e))], e[r.Intn(len(e))], e[r.Intn(len(e))], e[r.Intn(len(e))]})
	}
	return v
}

// TestLaneKernelsMatchGo runs sumLanes and tanhLanes, the assembly on amd64,
// against sumLanesGo and tanhLanesGo, bit for bit (NaN only as NaN), on
// kernelInputs and on laneEdges, for every In × rows below.
func TestLaneKernelsMatchGo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("sumLanes and tanhLanes are the Go kernels on " + runtime.GOARCH)
	}
	r := rand.New(rand.NewSource(31))
	same := func(what string, got, want []lanes) {
		t.Helper()
		for i := range got {
			for k := range got[i] {
				if !sameBits(got[i][k], want[i][k]) {
					t.Fatalf("%s: group %d lane %d = %x, Go kernel %x", what, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
	tanhBoth := func(what string, v []lanes) {
		t.Helper()
		got, want := append([]lanes(nil), v...), append([]lanes(nil), v...)
		tanhLanes(got, make([]uint8, len(got)+1))
		tanhLanesGo(want)
		same("tanh of "+what, got, want)
	}
	edges := laneEdges(r)
	tanhBoth("laneEdges", edges)
	for _, in := range []int{0, 1, 3, 4, 5, 30, 2048} {
		for _, rows := range []int{0, 1, 3, 4, 7, 2048} {
			w, b := make([]float64, rows*in), make([]float64, rows)
			for k := range w {
				w[k] = r.Float64()*2 - 1
			}
			for k := range b {
				b[k] = r.Float64()*2 - 1
			}
			samples := kernelInputs(r, 4, in)
			x, xe := make([]lanes, in), make([]lanes, in)
			for j := range x {
				x[j] = lanes{samples[0][j], samples[1][j], samples[2][j], samples[3][j]}
				xe[j] = edges[j%len(edges)]
			}
			for _, c := range []struct {
				name string
				x    []lanes
			}{{"kernelInputs", x}, {"laneEdges", xe}} {
				got, want := make([]lanes, rows), make([]lanes, rows)
				sumLanes(w, b, c.x, got)
				sumLanesGo(w, b, c.x, want)
				what := fmt.Sprintf("%s, %d×%d sums", c.name, rows, in)
				same(what, got, want)
				tanhBoth(what, got)
			}
		}
	}
}

// TestInferBatchConcurrentNetworks: distinct networks infer on distinct
// goroutines at once, each getting what it gets alone, so inference keeps no
// state outside its Network (run it under -race).
func TestInferBatchConcurrentNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	nets := []*Network{
		New([]int{4, 2048, 1}, []Activation{Tanh, Linear}, 1),
		New([]int{30, 32, 16, 1}, []Activation{Tanh, Tanh, Linear}, 2),
	}
	xs := make([][][]float64, len(nets))
	want := make([][]float64, len(nets))
	for i, n := range nets {
		xs[i] = kernelInputs(r, 63, n.InputSize())
		want[i] = make([]float64, len(xs[i])*n.OutputSize())
		n.InferBatch(xs[i], want[i])
	}
	var wg sync.WaitGroup
	for i, n := range nets {
		c := n.Clone() // no buffers yet: its first InferBatch allocates them concurrently
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, len(want[i]))
			for round := 0; round < 10; round++ {
				c.InferBatch(xs[i], got)
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
						t.Errorf("network %d, round %d, output %d: %x concurrently, %x alone", i, round, k, got[k], want[i][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestInferBatchSizePanics(t *testing.T) {
	n := New([]int{2, 3, 2}, []Activation{Tanh, Linear}, 1)
	for name, fn := range map[string]func(){
		"short output": func() { n.InferBatch([][]float64{{1, 2}}, make([]float64, 1)) },
		"short input":  func() { n.InferBatch([][]float64{{1, 2}, {1}}, make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInferBatchNoAllocAfterFirst(t *testing.T) {
	n := New([]int{4, 2048, 1}, []Activation{Tanh, Linear}, 1)
	xs := kernelInputs(rand.New(rand.NewSource(1)), 7, 4)
	ys := make([]float64, 7)
	n.InferBatch(xs, ys)
	if allocs := testing.AllocsPerRun(20, func() { n.InferBatch(xs, ys) }); allocs != 0 {
		t.Errorf("InferBatch allocates %v times per call after the first, want 0", allocs)
	}
}

// TestInferLeavesTrainingCaches: an inference between a Forward and its
// Backward must not change the gradients that Backward accumulates.
func TestInferLeavesTrainingCaches(t *testing.T) {
	build := func() *Network { return New([]int{5, 7, 3}, []Activation{Tanh, Sigmoid}, 9) }
	r := rand.New(rand.NewSource(9))
	in := kernelInputs(r, 2, 5)[1]
	others := kernelInputs(r, 5, 5)
	gradOut := []float64{0.3, -0.2, 0.1}
	out := make([]float64, 3)

	want := build()
	want.Forward(in, out)
	want.Backward(gradOut)

	got := build()
	got.Forward(in, out)
	got.Infer(others[0])
	got.InferBatch(others, make([]float64, len(others)*3))
	got.Backward(gradOut)

	for li, l := range got.Layers {
		wl := want.Layers[li]
		for i := range l.GW {
			for j := range l.GW[i] {
				if l.GW[i][j] != wl.GW[i][j] {
					t.Fatalf("layer %d GW[%d][%d] = %v after an interleaved inference, want %v",
						li, i, j, l.GW[i][j], wl.GW[i][j])
				}
			}
			if l.GB[i] != wl.GB[i] {
				t.Fatalf("layer %d GB[%d] = %v after an interleaved inference, want %v", li, i, l.GB[i], wl.GB[i])
			}
		}
	}
}

// pinnedLosses trains a net whose layers have every Out%4 and every
// activation for 50 steps and returns each step's loss.
func pinnedLosses(opt Optimizer) []float64 {
	n := New([]int{6, 9, 7, 5, 3}, []Activation{Tanh, ReLU, Sigmoid, Linear}, 11)
	r := rand.New(rand.NewSource(12))
	x := make([][]float64, 8)
	y := make([][]float64, 8)
	for k := range x {
		x[k] = make([]float64, 6)
		for j := range x[k] {
			x[k][j] = r.Float64()*2 - 1
		}
		y[k] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	losses := make([]float64, 50)
	for s := range losses {
		losses[s] = TrainBatch(n, opt, x, y, 1)
	}
	return losses
}

func TestWeightRowsViewTheSlab(t *testing.T) {
	in := []float64{0.3, -0.7, 0.2, 0.9}
	infer := func(n *Network) float64 {
		ys := make([]float64, 4)
		n.InferBatch([][]float64{in, in, in, in}, ys)
		if one := n.Infer(in)[0]; one != ys[0] || one != ys[3] {
			t.Fatalf("Infer %v, InferBatch %v", one, ys)
		}
		return ys[0]
	}
	n := New([]int{4, 6, 1}, []Activation{Tanh, Linear}, 5)
	before := infer(n)

	// A write through a row is a write to the slab the kernels read.
	n.Layers[0].W[2][1] += 0.5
	written := infer(n)
	if written == before {
		t.Error("a write through W[i][j] did not reach the kernel")
	}
	// A row cannot grow into its neighbour.
	row := n.Layers[0].W[2]
	next := n.Layers[0].W[3][0]
	_ = append(row, 42)
	if n.Layers[0].W[3][0] != next {
		t.Error("append to a row view overwrote the next row")
	}

	c := n.Clone()
	if infer(c) != written {
		t.Error("Clone's kernel does not see the copied weights")
	}
	c.Layers[1].W[0][3] -= 0.25
	if infer(c) == written || infer(n) != written {
		t.Error("Clone must have a slab of its own")
	}
	fresh := New([]int{4, 6, 1}, []Activation{Tanh, Linear}, 6)
	fresh.CopyParamsFrom(c)
	if infer(fresh) != infer(c) {
		t.Error("CopyParamsFrom's weights are not the ones the kernel reads")
	}
	fresh.Layers[0].GW[1][1] = 3
	fresh.ZeroGrad()
	if fresh.Layers[0].GW[1][1] != 0 {
		t.Error("GW rows do not view the gradient slab ZeroGrad clears")
	}

	// Training on the slab is training on the rows: the losses are the ones
	// the [][]float64 layout gave (recorded at the commit before the slab, on
	// amd64, where the compiler fuses no multiply-add).
	pinned := map[int]struct{ adam, sgd float64 }{
		0:  {0x1.df3a57224ce8cp-02, 0x1.df3a57224ce8cp-02},
		1:  {0x1.9e387f35c2ac9p-02, 0x1.a7e8714791619p-02},
		9:  {0x1.1476d087e6595p-03, 0x1.5e38c7495aa32p-03},
		49: {0x1.45dbd9bfa71e1p-06, 0x1.8005a797a691cp-05},
	}
	adam, sgd := pinnedLosses(NewAdam(0.01)), pinnedLosses(NewSGD(0.05, 0.9))
	for step, want := range pinned {
		if adam[step] != want.adam {
			t.Errorf("Adam step %d: loss %x, want %x", step+1, adam[step], want.adam)
		}
		if sgd[step] != want.sgd {
			t.Errorf("SGD step %d: loss %x, want %x", step+1, sgd[step], want.sgd)
		}
	}
}

func benchInferBatch(b *testing.B, sizes []int, inputs func(*rand.Rand, int, int) [][]float64) {
	acts := make([]Activation, len(sizes)-1)
	for i := range acts {
		acts[i] = Tanh
	}
	acts[len(acts)-1] = Linear
	n := New(sizes, acts, 1)
	const batch = 64
	xs := inputs(rand.New(rand.NewSource(1)), batch, sizes[0])
	ys := make([]float64, batch*n.OutputSize())
	n.InferBatch(xs, ys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.InferBatch(xs, ys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/sample")
}

// uniformInputs returns n inputs of the given width drawn uniformly from
// [−1, 1), as the fleet's datapaths draw the samples its fidelity pass runs
// through the bloated net.
func uniformInputs(r *rand.Rand, n, width int) [][]float64 {
	xs := make([][]float64, n)
	for k := range xs {
		xs[k] = make([]float64, width)
		for j := range xs[k] {
			xs[k][j] = r.Float64()*2 - 1
		}
	}
	return xs
}

func BenchmarkInferBatchAurora(b *testing.B) {
	benchInferBatch(b, []int{30, 32, 16, 1}, kernelInputs)
}

// BenchmarkInferBatchBloated runs kernelInputs, whose zero and scale-8
// samples cover tanh's edges; BenchmarkInferBatchBloatedUniform runs the
// input distribution of fleet-rollout's fidelity pass.
func BenchmarkInferBatchBloated(b *testing.B) { benchInferBatch(b, []int{4, 2048, 1}, kernelInputs) }
func BenchmarkInferBatchBloatedUniform(b *testing.B) {
	benchInferBatch(b, []int{4, 2048, 1}, uniformInputs)
}

// BenchmarkTanh times applyAll's tanh (tanhArm, math.Tanh for the rest)
// against the same loop calling math.Tanh alone, per value, on values that
// all take the inline arm and on the mix kernelInputs gives the bloated net's
// first layer.
func BenchmarkTanh(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	small := make([]float64, 1024)
	for i := range small {
		small[i] = (r.Float64()*2 - 1) * 0.6
	}
	l := New([]int{4, 2048, 1}, []Activation{Tanh, Linear}, 1).Layers[0]
	var mixed []float64
	for _, x := range kernelInputs(r, 4, l.In) {
		sum := make([]float64, l.Out)
		l.sums(x, sum)
		mixed = append(mixed, sum...)
	}
	perValue := func(b *testing.B, xs []float64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/value")
	}
	for _, in := range []struct {
		name string
		xs   []float64
	}{{"small", small}, {"mixed", mixed}} {
		v := make([]float64, len(in.xs))
		b.Run(in.name+"/arm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, in.xs)
				Tanh.applyAll(v)
			}
			perValue(b, in.xs)
		})
		b.Run(in.name+"/math", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, in.xs)
				for j, x := range v {
					v[j] = math.Tanh(x)
				}
			}
			perValue(b, in.xs)
		})
	}
}

// BenchmarkInferBloated is the per-sample path InferBatch replaces in the
// fleet's necessity gate.
func BenchmarkInferBloated(b *testing.B) {
	n := New([]int{4, 2048, 1}, []Activation{Tanh, Linear}, 1)
	xs := kernelInputs(rand.New(rand.NewSource(1)), 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Infer(xs[i%len(xs)])
	}
}
