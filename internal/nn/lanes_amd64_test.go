package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// withoutAVX runs f with the package's AVX flag off, so every kernel
// dispatch takes the Go kernels as on an amd64 CPU without AVX.
func withoutAVX(f func()) {
	defer func(was bool) { avx = was }(avx)
	avx = false
	f()
}

// TestGoKernelsMatchAVXDispatch runs InferBatch, unsplit at GOMAXPROCS 1 and
// split at 4, and TrainBatch with Adam through the real dispatch twice: once
// on the assembly and once with the AVX flag off, on the Go kernels an amd64
// CPU without AVX runs. Every output, loss, weight, bias and Adam moment must
// have the same bits. kernelZoo's widths give backRows4 every tail of 0–3
// columns (checkTrainKernels gives both training kernels every tail).
func TestGoKernelsMatchAVXDispatch(t *testing.T) {
	if !avx {
		t.Skip("this CPU runs the Go kernels only: no AVX or no OS support for the YMM state")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(45))
	splits := 0
	for _, z := range kernelZoo {
		acts := make([]Activation, len(z.sizes)-1)
		for i := range acts {
			acts[i] = Tanh
		}
		acts[len(acts)-1] = Linear
		n := New(z.sizes, acts, 45)
		os := n.OutputSize()
		for _, size := range []int{7, 64, 65} {
			xs := kernelInputs(r, size, n.InputSize())
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				if n.workers(size/4) > 1 {
					splits++
				}
				got, want := make([]float64, size*os), make([]float64, size*os)
				n.InferBatch(xs, got)
				withoutAVX(func() { n.InferBatch(xs, want) })
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, batch %d, %d workers: output %d is %x on AVX, %x on the Go kernels",
							z.name, size, n.workers(size/4), i, got[i], want[i])
					}
				}
			}
		}

		a, b := n.Clone(), n.Clone()
		optA, optB := NewAdam(0.01), NewAdam(0.01)
		for step := 0; step < 5; step++ {
			x, y := kernelInputs(r, 9, n.InputSize()), kernelInputs(r, 9, os)
			la := TrainBatch(a, optA, x, y, 1)
			var lb float64
			withoutAVX(func() { lb = TrainBatch(b, optB, x, y, 1) })
			if diff := sameParams(a, optA, b, optB); math.Float64bits(la) != math.Float64bits(lb) || diff != "" {
				t.Fatalf("%s, step %d: loss %x on AVX, %x on the Go kernels; %s", z.name, step, la, lb, diff)
			}
		}
	}
	if splits == 0 {
		t.Error("no InferBatch call split; the split path went unchecked")
	}
}

// sameParams reports the first weight, bias or Adam moment where a and b
// differ, or "" when every one has the same bits.
func sameParams(a *Network, optA *Adam, b *Network, optB *Adam) string {
	for li, la := range a.Layers {
		lb := b.Layers[li]
		sa, sb := optA.mv[la], optB.mv[lb]
		for _, s := range []struct {
			what string
			x, y []float64
		}{
			{"weights", la.w, lb.w}, {"biases", la.B, lb.B},
			{"weight first moments", sa.mW, sb.mW}, {"weight second moments", sa.vW, sb.vW},
			{"bias first moments", sa.mB, sb.mB}, {"bias second moments", sa.vB, sb.vB},
		} {
			for k := range s.x {
				if math.Float64bits(s.x[k]) != math.Float64bits(s.y[k]) {
					return fmt.Sprintf("layer %d %s[%d] = %x on AVX, %x on the Go kernels", li, s.what, k, s.x[k], s.y[k])
				}
			}
		}
	}
	return ""
}

// TestTanhArmLanesReportsLeft: tanhArmLanes lists exactly the groups with a
// lane left for math.Tanh, in order and each with its lane mask, so tanhLanes
// visits every such group and no other. The list must be what a Go scan of
// the inputs finds: empty on values all inside the arm, one entry when a
// single lane of the last group is outside it, and every group when all are.
func TestTanhArmLanesReportsLeft(t *testing.T) {
	if !avx {
		t.Skip("this CPU runs the Go kernels only: no AVX or no OS support for the YMM state")
	}
	r := rand.New(rand.NewSource(47))
	lastLane := armLanes(r)
	lastLane[len(lastLane)-1][3] = 2
	sparse := make([]lanes, 2048)
	for i := range sparse {
		sparse[i] = armLanes(r)[0]
	}
	for _, i := range []int{0, 5, 6, 1000, 2047} {
		sparse[i][r.Intn(4)] = []float64{1.5, -0.625, math.NaN(), math.Inf(-1)}[r.Intn(4)]
	}
	allLeft := make([]lanes, 7)
	for i := range allLeft {
		allLeft[i] = lanes{1, -1, 0.625, math.NaN()}
	}
	for _, c := range []struct {
		name string
		v    []lanes
	}{
		{"no groups", nil},
		{"values inside the arm", armLanes(r)},
		{"2 in lane 3 of the last group", lastLane},
		{"five groups of 2048 with one lane out", sparse},
		{"every group", allLeft},
		{"laneEdges", laneEdges(r)},
	} {
		var want []uint32
		for i, x := range c.v {
			var m uint32
			for k, xk := range x {
				if !(math.Abs(xk) < 0.625) {
					m |= 1 << k
				}
			}
			if m != 0 {
				want = append(want, uint32(i)<<4|m)
			}
		}
		left := make([]uint32, len(c.v))
		if got := left[:tanhArmLanes(slices.Clone(c.v), left)]; !slices.Equal(got, want) {
			t.Errorf("%s: listed %#x, want %#x", c.name, got, want)
		}
	}
}
