#include "textflag.h"

// Each lanes vector is one YMM register. Every load and store is VMOVUPD,
// because a lanes or float64 slice is only 8-byte aligned, and every kernel
// clears the upper halves with VZEROUPPER before it returns, so the SSE code
// the Go compiler emits pays no transition penalty. Operands read
// (src2, src1, dst): VSUBPD a, b, c and VDIVPD a, b, c set c = b − a and
// c = b / a.

// func sumLanesAVX(w, b []float64, x, dst []lanes)
//
// Per row, the accumulator Y0 starts at b broadcast; for each j, w's element
// is broadcast and s_k += w·x_k runs on the four lanes in index order, as in
// sumLanesGo.
TEXT ·sumLanesAVX(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ dst_base+72(FP), DI
	MOVQ dst_len+80(FP), R8
	TESTQ R8, R8
	JZ done

row:
	VBROADCASTSD (BX), Y0
	MOVQ DX, R9
	MOVQ CX, R10
	TESTQ R10, R10
	JZ store

col:
	VBROADCASTSD (SI), Y1
	VMOVUPD (R9), Y2
	VMULPD Y2, Y1, Y2
	VADDPD Y2, Y0, Y0
	ADDQ $8, SI
	ADDQ $32, R9
	DECQ R10
	JNZ col

store:
	VMOVUPD Y0, (DI)
	ADDQ $8, BX
	ADDQ $32, DI
	DECQ R8
	JNZ row

done:
	VZEROUPPER
	RET

// func tanhArmLanes(v []lanes, left []uint32) (listed int)
//
// With Y8–Y15 holding tanhConsts broadcast, each group x forms s = x·x (Y1),
// P = (P0·s+P1)·s+P2 (Y2), Q = ((s+Q0)·s+Q1)·s+Q2 (Y3) and
// y = ((x·s)·P)/Q + x (Y4): the operations and association the compiler
// emits for tanhArm's expression, with commutative swaps only. Y6 is
// |x| < 0.625 (ordered, so false for NaN), Y7 that and x ≠ 0; VBLENDVPD
// keeps y where Y7 is set and x elsewhere. The group's mask is the
// complement of Y6's four sign bits. SI holds the group's index shifted left
// by 4, and DX counts the entries listed: every group stores index<<4|mask
// at left[DX], and DX moves past it only when the mask is non-zero, so the
// store never runs ahead of the group.
TEXT ·tanhArmLanes(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ left_base+24(FP), BX
	XORL DX, DX
	XORL SI, SI
	TESTQ CX, CX
	JZ done
	LEAQ ·tanhConsts(SB), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

group:
	VMOVUPD (DI), Y0
	VMULPD Y0, Y0, Y1
	VMULPD Y1, Y8, Y2
	VADDPD Y9, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Y12, Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Y13, Y3, Y3
	VMULPD Y1, Y0, Y4
	VMULPD Y2, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VADDPD Y0, Y4, Y4
	VANDPD Y15, Y0, Y5
	VCMPPD $1, Y14, Y5, Y6
	VXORPD Y7, Y7, Y7
	VCMPPD $4, Y7, Y0, Y7
	VANDPD Y6, Y7, Y7
	VBLENDVPD Y7, Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	VMOVMSKPD Y6, AX
	XORL $15, AX
	MOVL SI, R8
	ORL AX, R8
	MOVL R8, (BX)(DX*4)
	NEGL AX
	ADCQ $0, DX
	ADDL $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ group

done:
	MOVQ DX, listed+48(FP)
	VZEROUPPER
	RET

// BACK does backRows4's work on the column(s) at byte offset AX: four with
// (VMOVUPD, VMULPD, VADDPD) on Y registers, one with (VMOVSD, VMULSD,
// VADDSD) on X registers. D0–D3 hold d0…d3, T0–T3 are scratch. g_k += dk·x
// for k = 0…3, then p = prev, p += dk·w_k for k = 0…3 in row order, stored
// back.
#define BACK(MOV, MUL, ADD, D0, D1, D2, D3, T0, T1, T2, T3) \
	MOV (SI)(AX*1), T0 \
	MUL T0, D0, T1 \
	MOV (R9)(AX*1), T2 \
	ADD T1, T2, T2 \
	MOV T2, (R9)(AX*1) \
	MUL T0, D1, T1 \
	MOV (R13)(AX*1), T2 \
	ADD T1, T2, T2 \
	MOV T2, (R13)(AX*1) \
	MUL T0, D2, T1 \
	MOV (R14)(AX*1), T2 \
	ADD T1, T2, T2 \
	MOV T2, (R14)(AX*1) \
	MUL T0, D3, T1 \
	MOV (BX)(AX*1), T2 \
	ADD T1, T2, T2 \
	MOV T2, (BX)(AX*1) \
	MOV (DI)(AX*1), T3 \
	MOV (R8)(AX*1), T1 \
	MUL T1, D0, T1 \
	ADD T1, T3, T3 \
	MOV (R10)(AX*1), T1 \
	MUL T1, D1, T1 \
	ADD T1, T3, T3 \
	MOV (R11)(AX*1), T1 \
	MUL T1, D2, T1 \
	ADD T1, T3, T3 \
	MOV (R12)(AX*1), T1 \
	MUL T1, D3, T1 \
	ADD T1, T3, T3 \
	MOV T3, (DI)(AX*1)

// func backRows4AVX(x, prev, w, gw []float64, d0, d1, d2, d3 float64)
//
// Y0–Y3 hold dk broadcast. AX is the byte offset of column j in every slice,
// so the eight row pointers stay put: w's rows in R8, R10–R12, gw's in R9,
// R13, R14, BX. Four columns per pass, then the 0–3 left one at a time.
TEXT ·backRows4AVX(SB), NOSPLIT, $0-128
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ prev_base+24(FP), DI
	MOVQ w_base+48(FP), R8
	MOVQ gw_base+72(FP), R9
	VBROADCASTSD d0+96(FP), Y0
	VBROADCASTSD d1+104(FP), Y1
	VBROADCASTSD d2+112(FP), Y2
	VBROADCASTSD d3+120(FP), Y3
	SHLQ $3, CX
	LEAQ (R8)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (R9)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), BX
	MOVQ CX, DX
	ANDQ $-32, DX
	XORQ AX, AX
	CMPQ AX, DX
	JEQ tail

quad:
	BACK(VMOVUPD, VMULPD, VADDPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	ADDQ $32, AX
	CMPQ AX, DX
	JNE quad

tail:
	CMPQ AX, CX
	JEQ done
	BACK(VMOVSD, VMULSD, VADDSD, X0, X1, X2, X3, X4, X5, X6, X7)
	ADDQ $8, AX
	JMP tail

done:
	VZEROUPPER
	RET

// ADAM4 does adamStep's work on the four parameters at byte offset AX, in
// adamStepGo's order: m = b1·m + c1·g and v = b2·v + (c2·g)·g, both stored,
// then p -= (lr·(m/bc1)) / (√(v/bc2) + eps). ADAM1 is the same on the one
// parameter there, in VEX scalar ops (VSQRTSD rounds as math.Sqrt's SQRTSD
// does, and VSQRTPD per lane likewise).
#define ADAM4 \
	VMOVUPD (SI)(AX*1), Y8 \
	VMOVUPD (R8)(AX*1), Y9 \
	VMULPD Y9, Y0, Y9 \
	VMULPD Y8, Y1, Y10 \
	VADDPD Y10, Y9, Y9 \
	VMOVUPD Y9, (R8)(AX*1) \
	VMOVUPD (R9)(AX*1), Y11 \
	VMULPD Y11, Y2, Y11 \
	VMULPD Y8, Y3, Y10 \
	VMULPD Y8, Y10, Y10 \
	VADDPD Y10, Y11, Y11 \
	VMOVUPD Y11, (R9)(AX*1) \
	VDIVPD Y5, Y9, Y9 \
	VMULPD Y9, Y4, Y9 \
	VDIVPD Y6, Y11, Y11 \
	VSQRTPD Y11, Y11 \
	VADDPD Y7, Y11, Y11 \
	VDIVPD Y11, Y9, Y9 \
	VMOVUPD (DI)(AX*1), Y12 \
	VSUBPD Y9, Y12, Y12 \
	VMOVUPD Y12, (DI)(AX*1)

#define ADAM1 \
	VMOVSD (SI)(AX*1), X8 \
	VMOVSD (R8)(AX*1), X9 \
	VMULSD X9, X0, X9 \
	VMULSD X8, X1, X10 \
	VADDSD X10, X9, X9 \
	VMOVSD X9, (R8)(AX*1) \
	VMOVSD (R9)(AX*1), X11 \
	VMULSD X11, X2, X11 \
	VMULSD X8, X3, X10 \
	VMULSD X8, X10, X10 \
	VADDSD X10, X11, X11 \
	VMOVSD X11, (R9)(AX*1) \
	VDIVSD X5, X9, X9 \
	VMULSD X9, X4, X9 \
	VDIVSD X6, X11, X11 \
	VSQRTSD X11, X11, X11 \
	VADDSD X7, X11, X11 \
	VDIVSD X11, X9, X9 \
	VMOVSD (DI)(AX*1), X12 \
	VSUBSD X9, X12, X12 \
	VMOVSD X12, (DI)(AX*1)

// func adamStepAVX(p, g, m, v []float64, c *adamCoefs)
//
// Y0–Y7 hold c's eight fields broadcast. Four parameters per pass, then the
// 0–3 left one at a time.
TEXT ·adamStepAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-32, DX
	XORQ AX, AX
	CMPQ AX, DX
	JEQ adamtail

adamquad:
	ADAM4
	ADDQ $32, AX
	CMPQ AX, DX
	JNE adamquad

adamtail:
	CMPQ AX, CX
	JEQ adamdone
	ADAM1
	ADDQ $8, AX
	JMP adamtail

adamdone:
	VZEROUPPER
	RET
