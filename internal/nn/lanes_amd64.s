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

// BACK does backRows4's work on the column(s) at byte offset AX: two with
// (MOVUPD, MULPD, ADDPD), one with (MOVSD, MULSD, ADDSD). Packed memory
// operands fault unless 16-byte aligned and a []float64 is only 8-byte
// aligned, so every operand is loaded into a register first. g_k += dk·x for
// k = 0…3, then p = prev, p += dk·w_k for k = 0…3 in row order, stored back.
#define BACK(MOV, MUL, ADD) \
	MOV (SI)(AX*1), X4 \
	MOVAPD X4, X5 \
	MUL X0, X5 \
	MOV (R9)(AX*1), X6 \
	ADD X5, X6 \
	MOV X6, (R9)(AX*1) \
	MOVAPD X4, X5 \
	MUL X1, X5 \
	MOV (R13)(AX*1), X6 \
	ADD X5, X6 \
	MOV X6, (R13)(AX*1) \
	MOVAPD X4, X5 \
	MUL X2, X5 \
	MOV (R14)(AX*1), X6 \
	ADD X5, X6 \
	MOV X6, (R14)(AX*1) \
	MUL X3, X4 \
	MOV (BX)(AX*1), X6 \
	ADD X4, X6 \
	MOV X6, (BX)(AX*1) \
	MOV (DI)(AX*1), X7 \
	MOV (R8)(AX*1), X5 \
	MUL X0, X5 \
	ADD X5, X7 \
	MOV (R10)(AX*1), X5 \
	MUL X1, X5 \
	ADD X5, X7 \
	MOV (R11)(AX*1), X5 \
	MUL X2, X5 \
	ADD X5, X7 \
	MOV (R12)(AX*1), X5 \
	MUL X3, X5 \
	ADD X5, X7 \
	MOV X7, (DI)(AX*1)

// func backRows4(x, prev, w, gw []float64, d0, d1, d2, d3 float64)
//
// X0–X3 hold (dk, dk). AX is the byte offset of column j in every slice, so
// the eight row pointers stay put: w's rows in R8, R10–R12, gw's in R9,
// R13, R14, BX. Two columns per pass, then an odd last one.
TEXT ·backRows4(SB), NOSPLIT, $0-128
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ prev_base+24(FP), DI
	MOVQ w_base+48(FP), R8
	MOVQ gw_base+72(FP), R9
	MOVSD d0+96(FP), X0
	UNPCKLPD X0, X0
	MOVSD d1+104(FP), X1
	UNPCKLPD X1, X1
	MOVSD d2+112(FP), X2
	UNPCKLPD X2, X2
	MOVSD d3+120(FP), X3
	UNPCKLPD X3, X3
	SHLQ $3, CX
	LEAQ (R8)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (R9)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), BX
	MOVQ CX, DX
	ANDQ $-16, DX
	XORQ AX, AX
	CMPQ AX, DX
	JEQ tail

pair:
	BACK(MOVUPD, MULPD, ADDPD)
	ADDQ $16, AX
	CMPQ AX, DX
	JNE pair

tail:
	CMPQ AX, CX
	JEQ done
	BACK(MOVSD, MULSD, ADDSD)

done:
	RET

// ADAM does adamStep's work on the parameter(s) at byte offset AX, two or
// one as BACK does, in adamStepGo's order: m = b1·m + c1·g and
// v = b2·v + (c2·g)·g, both stored, then p -= (lr·(m/bc1)) / (√(v/bc2) + eps).
#define ADAM(MOV, MUL, ADD, SUB, DIV, SQRT) \
	MOV (SI)(AX*1), X8 \
	MOV (R8)(AX*1), X9 \
	MUL X0, X9 \
	MOVAPD X8, X10 \
	MUL X1, X10 \
	ADD X10, X9 \
	MOV X9, (R8)(AX*1) \
	MOV (R9)(AX*1), X11 \
	MUL X2, X11 \
	MOVAPD X8, X10 \
	MUL X3, X10 \
	MUL X8, X10 \
	ADD X10, X11 \
	MOV X11, (R9)(AX*1) \
	DIV X5, X9 \
	MUL X4, X9 \
	DIV X6, X11 \
	SQRT X11, X11 \
	ADD X7, X11 \
	DIV X11, X9 \
	MOV (DI)(AX*1), X12 \
	SUB X9, X12 \
	MOV X12, (DI)(AX*1)

// func adamStep(p, g, m, v []float64, c *adamCoefs)
//
// X0–X7 hold c's eight fields, each in both halves.
TEXT ·adamStep(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	MOVSD 0(AX), X0
	UNPCKLPD X0, X0
	MOVSD 8(AX), X1
	UNPCKLPD X1, X1
	MOVSD 16(AX), X2
	UNPCKLPD X2, X2
	MOVSD 24(AX), X3
	UNPCKLPD X3, X3
	MOVSD 32(AX), X4
	UNPCKLPD X4, X4
	MOVSD 40(AX), X5
	UNPCKLPD X5, X5
	MOVSD 48(AX), X6
	UNPCKLPD X6, X6
	MOVSD 56(AX), X7
	UNPCKLPD X7, X7
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-16, DX
	XORQ AX, AX
	CMPQ AX, DX
	JEQ adamtail

adampair:
	ADAM(MOVUPD, MULPD, ADDPD, SUBPD, DIVPD, SQRTPD)
	ADDQ $16, AX
	CMPQ AX, DX
	JNE adampair

adamtail:
	CMPQ AX, CX
	JEQ adamdone
	ADAM(MOVSD, MULSD, ADDSD, SUBSD, DIVSD, SQRTSD)

adamdone:
	RET
