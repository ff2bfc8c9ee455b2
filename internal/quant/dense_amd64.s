#include "textflag.h"

// func dot4n(rows, x []int64) (a0, a1, a2, a3 int64)
//
// Row k of the four is rows[k·n:(k+1)·n] with n = len(x). Per four columns
// j, VPMULDQ forms the sign-extended 32×32→64 product of each lane's low
// halves and VPADDQ adds it into that row's accumulator (Y0–Y3, lane l
// holding the columns ≡ l mod 4). The transpose-add folds the four into one
// register (a0, a1, a2, a3); the n%4 columns left over are IMULQ/ADDQ.
TEXT ·dot4n(SB), NOSPLIT, $0-80
	MOVQ rows_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ fold

vec:
	VMOVDQU (DI)(AX*8), Y4
	VPMULDQ (SI)(AX*8), Y4, Y5
	VPMULDQ (R8)(AX*8), Y4, Y6
	VPMULDQ (R9)(AX*8), Y4, Y7
	VPMULDQ (R10)(AX*8), Y4, Y8
	VPADDQ Y5, Y0, Y0
	VPADDQ Y6, Y1, Y1
	VPADDQ Y7, Y2, Y2
	VPADDQ Y8, Y3, Y3
	ADDQ $4, AX
	CMPQ AX, DX
	JB vec

fold:
	// Y0 = (a0.0+a0.1, a1.0+a1.1, a0.2+a0.3, a1.2+a1.3), Y2 likewise for
	// rows 2 and 3; then the low halves of both plus the high halves of both.
	VPUNPCKLQDQ Y1, Y0, Y4
	VPUNPCKHQDQ Y1, Y0, Y5
	VPADDQ Y5, Y4, Y0
	VPUNPCKLQDQ Y3, Y2, Y4
	VPUNPCKHQDQ Y3, Y2, Y5
	VPADDQ Y5, Y4, Y2
	VPERM2I128 $0x20, Y2, Y0, Y4
	VPERM2I128 $0x31, Y2, Y0, Y5
	VPADDQ Y5, Y4, Y0
	VEXTRACTI128 $1, Y0, X1
	VMOVQ X0, BX
	VPEXTRQ $1, X0, R11
	VMOVQ X1, R12
	VPEXTRQ $1, X1, R13
	VZEROUPPER

tail:
	CMPQ AX, CX
	JAE done
	MOVQ (SI)(AX*8), DX
	IMULQ (DI)(AX*8), DX
	ADDQ DX, BX
	MOVQ (R8)(AX*8), DX
	IMULQ (DI)(AX*8), DX
	ADDQ DX, R11
	MOVQ (R9)(AX*8), DX
	IMULQ (DI)(AX*8), DX
	ADDQ DX, R12
	MOVQ (R10)(AX*8), DX
	IMULQ (DI)(AX*8), DX
	ADDQ DX, R13
	INCQ AX
	JMP tail

done:
	MOVQ BX, a0+48(FP)
	MOVQ R11, a1+56(FP)
	MOVQ R12, a2+64(FP)
	MOVQ R13, a3+72(FP)
	RET
