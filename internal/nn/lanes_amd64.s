#include "textflag.h"

// Each lanes vector is two XMM registers: lanes {0,1} at offset 0 and lanes
// {2,3} at offset 16. Every load and store is MOVUPD, because a lanes slice
// is not 16-byte aligned (packed SSE memory operands fault unless it is).

// func sumLanes(w, b []float64, x, dst []lanes)
//
// Per row, both accumulators start at (b, b); for each j, w's element is
// broadcast (MOVSD+UNPCKLPD: MOVDDUP is SSE3) and s_k += w·x_k runs on the
// four lanes in index order, as in sumLanesGo.
TEXT ·sumLanes(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ dst_base+72(FP), DI
	MOVQ dst_len+80(FP), R8
	TESTQ R8, R8
	JZ done

row:
	MOVSD (BX), X0
	UNPCKLPD X0, X0
	MOVAPD X0, X1
	MOVQ DX, R9
	MOVQ CX, R10
	TESTQ R10, R10
	JZ store

col:
	MOVSD (SI), X2
	UNPCKLPD X2, X2
	MOVUPD (R9), X3
	MOVUPD 16(R9), X4
	MULPD X2, X3
	MULPD X2, X4
	ADDPD X3, X0
	ADDPD X4, X1
	ADDQ $8, SI
	ADDQ $32, R9
	DECQ R10
	JNZ col

store:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	ADDQ $8, BX
	ADDQ $32, DI
	DECQ R8
	JNZ row

done:
	RET

// ARM does tanhArm on the two lanes at off(DI), in place, and leaves in mask
// the MOVMSKPD bits of |x| < 0.625. With X8–X15 holding tanhConsts, it forms
// s = x·x (X1), P = (P0·s+P1)·s+P2 (X2), Q = ((s+Q0)·s+Q1)·s+Q2 (X3) and
// y = ((x·s)·P)/Q + x (X4): the operations and association the compiler emits
// for tanhArm's expression, with commutative swaps only. Then y is kept where
// |x| < 0.625 and x ≠ 0 (X7) and x elsewhere (ANDPD/ANDNPD/ORPD).
#define ARM(off, mask) \
	MOVUPD off(DI), X0 \
	MOVAPD X0, X1 \
	MULPD X0, X1 \
	MOVAPD X8, X2 \
	MULPD X1, X2 \
	ADDPD X9, X2 \
	MULPD X1, X2 \
	ADDPD X10, X2 \
	MOVAPD X1, X3 \
	ADDPD X11, X3 \
	MULPD X1, X3 \
	ADDPD X12, X3 \
	MULPD X1, X3 \
	ADDPD X13, X3 \
	MOVAPD X0, X4 \
	MULPD X1, X4 \
	MULPD X2, X4 \
	DIVPD X3, X4 \
	ADDPD X0, X4 \
	MOVAPD X0, X5 \
	ANDPD X15, X5 \
	CMPPD X14, X5, $1 \
	MOVMSKPD X5, mask \
	XORPD X6, X6 \
	MOVAPD X0, X7 \
	CMPPD X6, X7, $4 \
	ANDPD X5, X7 \
	ANDPD X7, X4 \
	ANDNPD X0, X7 \
	ORPD X7, X4 \
	MOVUPD X4, off(DI)

// func tanhArmLanes(v []lanes, left []uint8)
TEXT ·tanhArmLanes(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ left_base+24(FP), BX
	TESTQ CX, CX
	JZ done
	LEAQ ·tanhConsts(SB), AX
	MOVUPD 0(AX), X8
	MOVUPD 16(AX), X9
	MOVUPD 32(AX), X10
	MOVUPD 48(AX), X11
	MOVUPD 64(AX), X12
	MOVUPD 80(AX), X13
	MOVUPD 96(AX), X14
	MOVUPD 112(AX), X15

group:
	ARM(0, AX)
	ARM(16, DX)
	SHLQ $2, DX
	ORQ DX, AX
	XORQ $15, AX
	MOVB AX, (BX)
	ADDQ $32, DI
	INCQ BX
	DECQ CX
	JNZ group

done:
	RET
