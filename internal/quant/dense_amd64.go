package quant

import "github.com/liteflow-sim/liteflow/internal/cpu"

// On amd64 with AVX2, dense runs dense16 (dense_amd64.s) in place of dot4
// and the row loop when the layer is on the packed tier and every input of
// the step fits in int16. There each VPMADDWD product of two int16s is exact
// in int32, and no partial sum of a row reaches 2³¹ in magnitude (fitsPacked),
// so VPADDD and VPHADDD never wrap: every int32 lane holds the int64 sum of
// its products, and VPMOVSXDQ widens it unchanged before the bias is added.

// packed reports whether this CPU runs dense16 and lookupShift: AVX2, and an
// OS that saves the YMM state (DESIGN.md §4k "Snapshot execution").
var packed = cpu.AVX2()

// dense16 packs x into x16 as int16, zeros past len(x), and reports whether
// every x fits in int16. If so it writes b[i] + w[i·s:(i+1)·s]·x16 into dst[i]
// for every i of dst, s = len(x16); if not it writes nothing to dst. It
// trusts its slices: s must be a positive multiple of 16 and at least len(x),
// w must hold len(dst)·s weights, every row fitting the packed tier, and b at
// least len(dst) biases.
//
//go:noescape
func dense16(w []int16, b, x []int64, x16 []int16, dst []int64) bool

// lookupShift runs lookup's loops (lookup_amd64.s) on the first len(v) &^ 3
// lanes of v, four at a time, and leaves the rest untouched. padded is the
// table with its copy of the last entry, last+2 long; span = tblMax − tblMin
// = 1<<shift. It is exact while span ≤ 2³¹, last < 2³² and every step
// |table[i+1] − table[i]| < 2³¹, which quant.go asserts at compile time for
// every table Quantize builds.
//
//go:noescape
func lookupShift(v, padded []int64, tblMin, tblMax, last int64, shift uint)
