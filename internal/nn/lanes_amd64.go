package nn

import (
	"math"

	"github.com/liteflow-sim/liteflow/internal/cpu"
)

// On amd64 with AVX the two four-sample inference kernels and the two
// training kernels are VEX-256 assembly (lanes_amd64.s). A lanes vector is
// one YMM register, and the training kernels take four columns per register
// and the 0–3 left over one at a time. Each packed VMULPD, VADDPD, VSUBPD,
// VDIVPD or VSQRTPD (and its scalar VEX form) computes per lane the IEEE-754
// binary64 operation the compiler emits as MULSD, ADDSD, SUBSD, DIVSD or
// SQRTSD (math.Sqrt) for the Go kernels, under the same MXCSR (round to
// nearest, no flush-to-zero, no denormals-are-zero); no FMA is used, and Go
// fuses no multiply-add on amd64. The assembly performs each element's
// operations in the Go code's order, so its results are the Go kernels' bit
// for bit. The one difference: where two NaN operands meet, which payload
// survives may differ. Without AVX the Go kernels run, as off amd64.

// avx reports whether this CPU runs the assembly: AVX, and an OS that saves
// the YMM state (DESIGN.md §4k "Userspace model execution").
var avx = cpu.AVX()

// sumLanes is sumLanesGo. Dense.sums4 slices its operands so that the
// assembly stays in bounds.
func sumLanes(w, b []float64, x, dst []lanes) {
	if avx {
		sumLanesAVX(w, b, x, dst)
		return
	}
	sumLanesGo(w, b, x, dst)
}

// sumLanesAVX is sumLanesGo. It trusts its slices: w must hold len(dst) rows
// of len(x) weights and b at least len(dst) biases.
//
//go:noescape
func sumLanesAVX(w, b []float64, x, dst []lanes)

// tanhArmLanes replaces each value x of v with tanhArm's result where
// 0 < |x| < 0.625 and leaves every other x as it is: tanh(±0) = ±0 exactly,
// and the rest are math.Tanh's. It lists the groups with lanes that still
// need math.Tanh in left[:listed], in order: group v[i] as i<<4 | m, where
// bit k of the 4-bit mask m is set when |v[i][k]| < 0.625 fails, NaN
// included. left must be at least len(v) long.
//
//go:noescape
func tanhArmLanes(v []lanes, left []uint32) (listed int)

// backRows4 is backRows4Go. Dense.backward slices its operands so that the
// assembly stays in bounds.
func backRows4(x, prev, w, gw []float64, d0, d1, d2, d3 float64) {
	if avx {
		backRows4AVX(x, prev, w, gw, d0, d1, d2, d3)
		return
	}
	backRows4Go(x, prev, w, gw, d0, d1, d2, d3)
}

// backRows4AVX is backRows4Go. It trusts its slices: prev must hold at least
// len(x) values, w and gw four rows of len(x) each.
//
//go:noescape
func backRows4AVX(x, prev, w, gw []float64, d0, d1, d2, d3 float64)

// adamStep is adamStepGo. Adam.Step slices its operands so that the assembly
// stays in bounds.
func adamStep(p, g, m, v []float64, c *adamCoefs) {
	if avx {
		adamStepAVX(p, g, m, v, c)
		return
	}
	adamStepGo(p, g, m, v, c)
}

// adamStepAVX is adamStepGo. It trusts its slices: g, m and v must be at
// least as long as p.
//
//go:noescape
func adamStepAVX(p, g, m, v []float64, c *adamCoefs)

// tanhConsts is what tanhArmLanes broadcasts into Y8–Y15: P0…P2, Q0…Q2, the
// arm's bound and the |x| mask.
var tanhConsts = [8]float64{
	tanhP0, tanhP1, tanhP2, tanhQ0, tanhQ1, tanhQ2, 0.625, math.Float64frombits(1<<63 - 1),
}

// tanhLanes is tanhLanesGo. With AVX the assembly computes the arm for all
// four lanes of a group at once, and math.Tanh takes the lanes it lists;
// left is the list's scratch, one entry per group, so Go visits only the
// groups that left the arm.
func tanhLanes(v []lanes, left []uint32) {
	if !avx {
		tanhLanesGo(v)
		return
	}
	for _, e := range left[:tanhArmLanes(v, left[:len(v)])] {
		x := &v[e>>4]
		for k := range x {
			if e>>k&1 != 0 {
				x[k] = math.Tanh(x[k])
			}
		}
	}
}
