package cpu

// cpuid runs CPUID on leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

// AVX reports whether this CPU runs AVX and the OS saves the YMM state:
// CPUID.1:ECX has OSXSAVE and AVX, and XCR0 has the XMM and YMM bits.
func AVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	return xgetbv()&6 == 6
}

// AVX2 reports whether AVX holds and CPUID.7:EBX has AVX2 too.
func AVX2() bool {
	const avx2 = 1 << 5
	if maxLeaf, _, _, _ := cpuid(0); maxLeaf < 7 || !AVX() {
		return false
	}
	_, b, _, _ := cpuid(7)
	return b&avx2 != 0
}
