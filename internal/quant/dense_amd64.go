package quant

import "github.com/liteflow-sim/liteflow/internal/cpu"

// On amd64 with AVX2, dense runs dot4n (dense_amd64.s) in place of dot4 when
// every weight of the layer and every input of the step fits in int32. There
// VPMULDQ's sign-extended 32×32→64 product equals Go's int64 product, and
// VPADDQ adds lanes mod 2⁶⁴ as ADDQ does, so with two's-complement addition
// associative and commutative the four sums are dot4's bit for bit.

// packed reports whether this CPU runs dot4n: AVX2, and an OS that saves the
// YMM state (DESIGN.md §4k "Snapshot execution").
var packed = cpu.AVX2()

// dot4n is dot4 for operands that fit in int32. It trusts its slices: rows
// must hold at least 4·len(x) weights.
//
//go:noescape
func dot4n(rows, x []int64) (a0, a1, a2, a3 int64)
