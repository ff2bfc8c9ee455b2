package quant

import (
	"math"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// This file implements the alternative the paper argues AGAINST in §3.1:
// approximating kernel-unavailable activations (tanh, sigmoid) with Taylor
// polynomials instead of lookup tables. It exists to reproduce the paper's
// two claims as a measurable ablation:
//
//  1. polynomial approximations are accurate only near the expansion point,
//     while a bounded LUT is uniformly accurate, and
//  2. raising the polynomial degree for accuracy raises per-inference cost,
//     while LUT evaluation is constant-time.
//
// See AblTaylor in internal/experiments.

// TaylorCoeffs returns the Maclaurin coefficients of the activation up to
// the given degree (inclusive). Only Tanh and Sigmoid are supported; other
// activations need no approximation in integer code.
func TaylorCoeffs(act nn.Activation, degree int) []float64 {
	c := make([]float64, degree+1)
	switch act {
	case nn.Tanh:
		// tanh x = x − x³/3 + 2x⁵/15 − 17x⁷/315 + 62x⁹/2835 − …
		odd := []float64{1, -1.0 / 3, 2.0 / 15, -17.0 / 315, 62.0 / 2835, -1382.0 / 155925}
		for i, v := range odd {
			k := 2*i + 1
			if k > degree {
				break
			}
			c[k] = v
		}
	case nn.Sigmoid:
		// σ(x) = 1/2 + x/4 − x³/48 + x⁵/480 − 17x⁷/80640 + …
		c[0] = 0.5
		terms := []float64{1.0 / 4, -1.0 / 48, 1.0 / 480, -17.0 / 80640, 31.0 / 1451520}
		for i, v := range terms {
			k := 2*i + 1
			if k > degree {
				break
			}
			c[k] = v
		}
	default:
		panic("quant: Taylor approximation only defined for tanh/sigmoid")
	}
	return c
}

// TaylorEval evaluates the polynomial at x via Horner's rule, counting the
// multiplications consumed (the complexity the paper contrasts with the
// LUT's constant cost).
func TaylorEval(coeffs []float64, x float64) (y float64, muls int) {
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = y*x + coeffs[i]
		if i > 0 {
			muls++
		}
	}
	return y, muls
}

// ApproxError measures the max and mean absolute error of an activation
// approximation at 2001 evenly spaced points of [-4, 4], the range the
// §3.1 ablation compares over.
func ApproxError(act nn.Activation, approx func(x float64) float64) (maxErr, meanErr float64) {
	const limit, samples = 4.0, 2001
	var sum float64
	for i := 0; i < samples; i++ {
		x := -limit + 2*limit*float64(i)/float64(samples-1)
		e := math.Abs(approx(x) - act.Apply(x))
		if e > maxErr {
			maxErr = e
		}
		sum += e
	}
	return maxErr, sum / float64(samples)
}

// LUTApprox builds an evaluation function over the same integer LUT
// machinery the snapshots use, for apples-to-apples comparison with Taylor
// polynomials. The returned function quantizes x at `scale`, which must
// divide AccScale, takes it to AccScale, looks up (the table at `scale`), and
// dequantizes. x is first held to the table range, where lookup clamps
// anyway, so that no x overflows the accumulator.
func LUTApprox(act nn.Activation, scale int64) func(x float64) float64 {
	l := &Layer{table: sharedTable(tableKey{act, scale})}
	return func(x float64) float64 {
		x = min(max(x, -tableRange), tableRange)
		v := [1]int64{roundToInt(x*float64(scale)) * (AccScale / scale)}
		l.lookup(v[:])
		return float64(v[0]) / float64(scale)
	}
}
