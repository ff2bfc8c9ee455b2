package quant

// On amd64 with AVX2, dense runs dot4n (dense_amd64.s) in place of dot4 when
// every weight of the layer and every input of the step fits in int32. There
// VPMULDQ's sign-extended 32×32→64 product equals Go's int64 product, and
// VPADDQ adds lanes mod 2⁶⁴ as ADDQ does, so with two's-complement addition
// associative and commutative the four sums are dot4's bit for bit.

// packed reports whether this CPU runs dot4n: AVX2, and an OS that saves the
// YMM state (DESIGN.md §4k "Snapshot execution").
var packed = hasAVX2()

// dot4n is dot4 for operands that fit in int32. It trusts its slices: rows
// must hold at least 4·len(x) weights.
//
//go:noescape
func dot4n(rows, x []int64) (a0, a1, a2, a3 int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

// hasAVX2 checks CPUID.1:ECX for OSXSAVE and AVX, XCR0 for the XMM and YMM
// state, and CPUID.7:EBX for AVX2.
func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
