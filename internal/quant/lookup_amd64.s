#include "textflag.h"

// func lookupShift(v, padded []int64, tblMin, tblMax, last int64, shift uint)
//
// Four lanes per step, len(v) &^ 3 of them, each the Go loop of lookup's
// shifting arm (quant.go) bit for bit. Two VPCMPGTQ+VPBLENDVB clamp the
// accumulators to [tblMin, tblMax], VPSUBQ gives off ≤ span ≤ 2³¹ and one
// VPMULUDQ num = off·last, exact as both fit in 32 bits; idx = num >> shift,
// rem = num & (span−1) < 2³¹. The four indices go to R8–R11, and each lane's
// pair (table[idx], table[idx+1]) is one 16-byte load from the padded table:
// lanes 0 and 2 in Y4, 1 and 3 in Y5, which VPUNPCKLQDQ and VPUNPCKHQDQ split
// into lo and hi in lane order. AVX2 has no VPSRAQ, so the truncating shift
// of d = (hi−lo)·rem runs in sign and magnitude: |hi−lo| < 2³¹ is the low
// dword's VPABSD, VPMULUDQ by rem and VPSRLQ give |d| >> shift, and (q^m)−m
// with m = (hi−lo < 0) puts the sign back. That is trunc(d / 2^shift), which
// the Go loop's (d + (d>>63 & mask)) >> shift also is.
TEXT ·lookupShift(SB), NOSPLIT, $0-80
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	ANDQ $-4, CX // lanes in whole fours
	JZ none
	MOVQ padded_base+24(FP), DI
	MOVQ tblMax+56(FP), AX
	SUBQ tblMin+48(FP), AX
	DECQ AX // span − 1
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12
	VPBROADCASTQ tblMin+48(FP), Y15
	VPBROADCASTQ tblMax+56(FP), Y14
	VPBROADCASTQ last+64(FP), Y13
	VMOVQ shift+72(FP), X11
	VPXOR Y10, Y10, Y10
	XORQ AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	VPCMPGTQ Y0, Y15, Y1 // tblMin > acc
	VPBLENDVB Y1, Y15, Y0, Y0
	VPCMPGTQ Y14, Y0, Y1 // acc > tblMax
	VPBLENDVB Y1, Y14, Y0, Y0
	VPSUBQ Y15, Y0, Y0   // off
	VPMULUDQ Y13, Y0, Y0 // num
	VPSRLQ X11, Y0, Y1   // idx
	VPAND Y12, Y0, Y2    // rem
	VMOVQ X1, R8
	VPEXTRQ $1, X1, R9
	VEXTRACTI128 $1, Y1, X1
	VMOVQ X1, R10
	VPEXTRQ $1, X1, R11
	VMOVDQU (DI)(R8*8), X4
	VMOVDQU (DI)(R9*8), X5
	VINSERTI128 $1, (DI)(R10*8), Y4, Y4
	VINSERTI128 $1, (DI)(R11*8), Y5, Y5
	VPUNPCKLQDQ Y5, Y4, Y6 // lo
	VPUNPCKHQDQ Y5, Y4, Y7 // hi
	VPSUBQ Y6, Y7, Y7      // hi − lo
	VPCMPGTQ Y7, Y10, Y8   // m: all ones where hi − lo < 0
	VPABSD Y7, Y7
	VPMULUDQ Y2, Y7, Y7
	VPSRLQ X11, Y7, Y7
	VPXOR Y8, Y7, Y7
	VPSUBQ Y8, Y7, Y7
	VPADDQ Y6, Y7, Y7
	VMOVDQU Y7, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JB loop
	VZEROUPPER

none:
	RET
