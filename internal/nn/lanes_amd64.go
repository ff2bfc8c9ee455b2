package nn

import "math"

// On amd64 the two four-sample inference kernels and the two training
// kernels are SSE2 assembly (lanes_amd64.s); SSE2 is the amd64 baseline, so
// no CPU check is needed. A lanes vector is two XMM registers, and the
// training kernels take two columns per register. Each packed MULPD, ADDPD,
// SUBPD, DIVPD or SQRTPD computes per lane the IEEE-754 binary64 operation
// the compiler emits as MULSD, ADDSD, SUBSD, DIVSD or SQRTSD (math.Sqrt) for
// the Go kernels, under the same MXCSR (round to nearest, no flush-to-zero,
// no denormals-are-zero); Go fuses no multiply-add on amd64. The assembly
// performs each element's operations in the Go code's order, so its results
// are the Go kernels' bit for bit. The one difference: where two NaN
// operands meet, which payload survives may differ.

// sumLanes is sumLanesGo. It trusts its slices: w must hold len(dst) rows of
// len(x) weights and b at least len(dst) biases (Dense.sums4 slices them so).
//
//go:noescape
func sumLanes(w, b []float64, x, dst []lanes)

// tanhArmLanes replaces each value x of v with tanhArm's result where
// 0 < |x| < 0.625 and leaves every other x as it is: tanh(±0) = ±0 exactly,
// and the rest are math.Tanh's. For each group v[i] it writes to left[i] a
// 4-bit mask of the lanes that still need math.Tanh: bit k is set where
// |v[i][k]| < 0.625 fails, NaN included. left must be at least len(v) long.
//
//go:noescape
func tanhArmLanes(v []lanes, left []uint8)

// backRows4 is backRows4Go. It trusts its slices: prev must hold at least
// len(x) values, w and gw four rows of len(x) each (Dense.backward slices
// them so).
//
//go:noescape
func backRows4(x, prev, w, gw []float64, d0, d1, d2, d3 float64)

// adamStep is adamStepGo. It trusts its slices: g, m and v must be at least
// as long as p (Adam.Step slices them so).
//
//go:noescape
func adamStep(p, g, m, v []float64, c *adamCoefs)

// tanhConsts is what tanhArmLanes loads into X8–X15, each value in both
// halves of a register: P0…P2, Q0…Q2, the arm's bound and the |x| mask.
var tanhConsts = [8][2]float64{
	{tanhP0, tanhP0}, {tanhP1, tanhP1}, {tanhP2, tanhP2},
	{tanhQ0, tanhQ0}, {tanhQ1, tanhQ1}, {tanhQ2, tanhQ2},
	{0.625, 0.625},
	{math.Float64frombits(1<<63 - 1), math.Float64frombits(1<<63 - 1)},
}

// tanhLanes is tanhLanesGo: the assembly computes the arm for all four lanes
// of a group at once, and math.Tanh takes the lanes its mask leaves. left is
// the mask's scratch, one byte per group.
func tanhLanes(v []lanes, left []uint8) {
	left = left[:len(v)]
	tanhArmLanes(v, left)
	for i, m := range left {
		if m == 0 {
			continue
		}
		x := &v[i]
		for k := range x {
			if m>>k&1 != 0 {
				x[k] = math.Tanh(x[k])
			}
		}
	}
}
