package quant

import "github.com/liteflow-sim/liteflow/internal/cpu"

// On amd64 with AVX2, dense runs denseAVX2 (dense_amd64.s) in place of dot4
// and the row loop when every weight of the layer and every input of the
// step fits in int32. There VPMULDQ's sign-extended 32×32→64 product equals
// Go's int64 product, and VPADDQ adds lanes mod 2⁶⁴ as ADDQ does, so with
// two's-complement addition associative and commutative every sum is the Go
// loop's bit for bit.

// packed reports whether this CPU runs denseAVX2: AVX2, and an OS that saves
// the YMM state (DESIGN.md §4k "Snapshot execution").
var packed = cpu.AVX2()

// denseAVX2 writes b[i] + w[i·n:(i+1)·n]·x into dst[i] for every i of dst,
// n = len(x), for weights and x that fit in int32. It trusts its slices: w
// must hold len(dst)·len(x) weights and b at least len(dst) biases.
//
//go:noescape
func denseAVX2(w, b, x, dst []int64)
