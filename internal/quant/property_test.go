package quant

// Property-based and fuzz tests: quantize→execute must track the float
// forward pass within a configured bound across randomly shaped networks and
// inputs, the batched/arena execution paths must be bit-identical to the
// sequential path, and the Taylor-vs-LUT ablation must hold its error
// characteristics under extreme inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// randomNet draws a random fully-connected network: 1–3 hidden layers of
// width 1–24, any supported activation per layer.
func randomNet(r *rand.Rand) *nn.Network {
	depth := 2 + r.Intn(3)
	sizes := make([]int, depth+1)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(24)
	}
	acts := make([]nn.Activation, depth)
	for i := range acts {
		acts[i] = nn.Activation(r.Intn(4)) // Linear, ReLU, Tanh, Sigmoid
	}
	return nn.New(sizes, acts, r.Int63())
}

// randomInput draws inputs in [-2, 2], the operating range of the CC state
// vectors the experiments feed through snapshots.
func randomInput(r *rand.Rand, n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = -2 + 4*r.Float64()
	}
	return in
}

// TestQuantErrorBoundRandomNetworks is the central quantization property:
// for random networks and inputs, the normalized deviation between the
// float forward pass and the integer program stays within a small bound at
// the default configuration (the paper's §3.1 claim behind Figure 7).
func TestQuantErrorBoundRandomNetworks(t *testing.T) {
	const trials = 60
	const bound = 0.05 // Fig. 7 shows ~2% at C=1000; leave slack for worst draws
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		net := randomNet(r)
		p := Quantize(net, DefaultConfig())
		inputs := make([][]float64, 16)
		for i := range inputs {
			inputs[i] = randomInput(r, net.InputSize())
		}
		if loss := AccuracyLoss(net, p, inputs); loss > bound {
			t.Errorf("trial %d: normalized quantization loss %.4f exceeds %.2f (net %v)",
				trial, loss, bound, shape(net))
		}
	}
}

func shape(net *nn.Network) []int {
	s := []int{net.InputSize()}
	for _, l := range net.Layers {
		s = append(s, l.Out)
	}
	return s
}

// TestInferWithMatchesInfer: caller-owned arenas must be bit-identical to
// the program-owned arena path.
func TestInferWithMatchesInfer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		net := randomNet(r)
		p := Quantize(net, DefaultConfig())
		a := &Arena{}
		a.Reserve(p.MaxWidth())
		in := p.QuantizeInput(randomInput(r, net.InputSize()), nil)
		want := make([]int64, p.OutputSize())
		got := make([]int64, p.OutputSize())
		p.Infer(in, want)
		p.InferWith(a, in, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: InferWith[%d] = %d, Infer = %d", trial, i, got[i], want[i])
			}
		}
		// A zero arena must grow on demand and still match.
		var zero Arena
		p.InferWith(&zero, in, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: zero-arena InferWith[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentInferWithPrivateArenas: one immutable Program, many
// goroutines, one arena each — results must equal the serial ones. Run under
// -race in CI, this is the quant half of the parallel-harness guarantee.
func TestConcurrentInferWithPrivateArenas(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	net := randomNet(r)
	p := Quantize(net, DefaultConfig())
	is, os := p.InputSize(), p.OutputSize()
	const workers = 8
	const perWorker = 50
	ins := make([][]int64, workers*perWorker)
	want := make([][]int64, len(ins))
	for i := range ins {
		ins[i] = p.QuantizeInput(randomInput(r, is), nil)
		want[i] = make([]int64, os)
		p.Infer(ins[i], want[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &Arena{}
			a.Reserve(p.MaxWidth())
			out := make([]int64, os)
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				p.InferWith(a, ins[i], out)
				for j := range out {
					if out[j] != want[i][j] {
						errs <- "concurrent inference diverged from serial"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTaylorErrorBoundsExtremeInputs pins the §3.1 ablation under extreme
// inputs: the LUT stays uniformly accurate (activations saturate, lookup
// clamps), while the Taylor polynomial's error grows without bound outside
// its convergence neighborhood.
func TestTaylorErrorBoundsExtremeInputs(t *testing.T) {
	for _, act := range []nn.Activation{nn.Tanh, nn.Sigmoid} {
		lut := LUTApprox(act, 1<<12)
		// Far outside the table range the activation is saturated and the
		// clamped LUT must stay within quantization resolution of it.
		for _, x := range []float64{-1e12, -500, -8.01, 8.01, 500, 1e12} {
			if e := math.Abs(lut(x) - act.Apply(x)); e > 1.5e-3 {
				t.Errorf("%v: LUT error %.5f at extreme x=%g", act, e, x)
			}
		}
		coeffs := TaylorCoeffs(act, 9)
		var lutMax, taylorMax float64
		for i := 0; i < 4001; i++ {
			x := -50 + 100*float64(i)/4000
			y, _ := TaylorEval(coeffs, x)
			lutMax = math.Max(lutMax, math.Abs(lut(x)-act.Apply(x)))
			taylorMax = math.Max(taylorMax, math.Abs(y-act.Apply(x)))
		}
		if lutMax > 1.5e-3 {
			t.Errorf("%v: LUT max error %.5f over [-50,50], want uniform accuracy", act, lutMax)
		}
		if taylorMax < 1e3 {
			t.Errorf("%v: degree-9 Taylor max error %.3g over [-50,50]; expected divergence ≫ LUT", act, taylorMax)
		}
	}
}

// FuzzQuantizeExecute derives a random network and input from the fuzz
// corpus and checks a quantize→execute absolute error bound under the default
// config, plus agreement of Infer and InferWith with the reference loop under
// it and under a C from 1 to MaxOutputScale drawn from the seed.
func FuzzQuantizeExecute(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(3))
	f.Add(int64(99), uint8(3), uint8(24), uint8(0))
	f.Add(int64(-7), uint8(1), uint8(1), uint8(255))
	f.Add(int64(54), uint8(16), uint8(62), uint8(41)) // 16-1-2: both outputs saturate, 3e-7 apart
	f.Add(int64(-1), uint8(2), uint8(7), uint8(2))    // C = MaxOutputScale
	f.Fuzz(func(t *testing.T, seed int64, depthB, widthB, actB uint8) {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + int(depthB)%3
		width := 1 + int(widthB)%16
		sizes := make([]int, depth+1)
		for i := range sizes {
			sizes[i] = 1 + (width+i)%16
		}
		acts := make([]nn.Activation, depth)
		for i := range acts {
			acts[i] = nn.Activation((int(actB) + i) % 4)
		}
		net := nn.New(sizes, acts, seed)
		p := Quantize(net, DefaultConfig())

		// The bound is on the absolute error: AccuracyLoss divides by the
		// observed output range, which for one input is the distance between
		// two outputs and can be arbitrarily small.
		in := randomInput(r, net.InputSize())
		want, got := net.Infer(in), p.InferFloat(in)
		for i := range want {
			if e := math.Abs(got[i] - want[i]); e > 0.02 {
				t.Errorf("output %d of %v: quantized %.5f, float %.5f (error %.5f)", i, sizes, got[i], want[i], e)
			}
		}

		checkAgainstReference(t, p, p.QuantizeInput(in, nil), "default config")
		c := 1 + int64(uint64(seed)%MaxOutputScale)
		q := Quantize(net, Config{OutputScale: c})
		checkAgainstReference(t, q, q.QuantizeInput(in, nil), fmt.Sprintf("C = %d", c))
	})
}

// FuzzLookupClamp drives raw accumulator values, including extremes, through
// the LUT of the hidden layers' tanh, of a falling table and of sigmoid at
// C = MaxOutputScale: the fuzzed value takes every position of a nine-lane
// vector whose other lanes are tblMin, tblMax, 0 and ±2⁶², so on AVX2 it
// meets both four-lane groups of lookupShift and the lane the Go loop takes
// after them. Every lane must stay within the activation's output range at
// outScale, equal the reference lookup and never panic.
func FuzzLookupClamp(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(math.MaxInt64 / 2))
	f.Add(int64(math.MinInt64 / 2))
	f.Add(int64(-1))
	f.Add(int64(5999))
	layers := []*Layer{lutLayer(nn.Tanh, actScale), fallingLayer(), lutLayer(nn.Sigmoid, MaxOutputScale)}
	const lanes = 9
	f.Fuzz(func(t *testing.T, acc int64) {
		for _, l := range layers {
			neighbours := []int64{tblMin, tblMax, 0, 1 << 62, -1 << 62}
			for p := 0; p < lanes; p++ {
				v := make([]int64, lanes)
				for j := range v {
					v[j] = neighbours[j%len(neighbours)]
				}
				v[p] = acc
				accs := slices.Clone(v)
				l.lookup(v)
				for j, got := range v {
					if got < -l.outScale || got > l.outScale {
						t.Errorf("lookup(%d) = %d at lane %d outside %v's range at scale %d", accs[j], got, j, l.Act, l.outScale)
					}
					if want := referenceLookup(l, accs[j]); got != want {
						t.Errorf("lookup(%d) = %d at lane %d of %v, reference = %d", accs[j], got, j, accs, want)
					}
				}
			}
		}
	})
}
