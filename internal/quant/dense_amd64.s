#include "textflag.h"

// tailMask<> from byte offset 8·(4−k) is the load mask of a k-column tail:
// k lanes of all ones, then zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func denseAVX2(w, b, x, dst []int64)
//
// Row i of the slab is w[i·n:(i+1)·n] with n = len(x), and dst[i] gets
// b[i] + row i · x. Per four columns j, VPMULDQ forms the sign-extended
// 32×32→64 product of each lane's low halves and VPADDQ adds it into the
// row's accumulator, lane l holding the columns ≡ l mod 4. The n%4 columns
// left over take one more step on masked loads (Y15 the mask, Y14 the tail
// of x with zeros past it), which read nothing past a row's end. Full
// four-row blocks accumulate in Y0–Y3, fold into one register
// (a0, a1, a2, a3), add b's four and store four of dst; each of the
// len(dst)%4 rows left accumulates in Y0 alone and folds to one lane.
TEXT ·denseAVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	MOVQ dst_base+72(FP), DX
	MOVQ dst_len+80(FP), R8
	LEAQ 0(CX*8), R10 // row stride in bytes
	MOVQ CX, R9
	ANDQ $-4, R9      // columns in whole vectors
	ANDQ $3, CX       // columns in the tail
	JZ blocks
	MOVQ $4, AX
	SUBQ CX, AX
	LEAQ tailMask<>(SB), R11
	VMOVDQU (R11)(AX*8), Y15
	VPMASKMOVQ (DI)(R9*8), Y15, Y14

blocks:
	MOVQ R8, R14
	ANDQ $3, R14      // rows left after the blocks
	SHRQ $2, R8       // whole four-row blocks
	JZ rows

block:
	LEAQ (SI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	TESTQ R9, R9
	JZ blocktail

blockvec:
	VMOVDQU (DI)(AX*8), Y4
	VPMULDQ (SI)(AX*8), Y4, Y5
	VPMULDQ (R11)(AX*8), Y4, Y6
	VPMULDQ (R12)(AX*8), Y4, Y7
	VPMULDQ (R13)(AX*8), Y4, Y8
	VPADDQ Y5, Y0, Y0
	VPADDQ Y6, Y1, Y1
	VPADDQ Y7, Y2, Y2
	VPADDQ Y8, Y3, Y3
	ADDQ $4, AX
	CMPQ AX, R9
	JB blockvec

blocktail:
	TESTQ CX, CX
	JZ fold
	VPMASKMOVQ (SI)(R9*8), Y15, Y5
	VPMASKMOVQ (R11)(R9*8), Y15, Y6
	VPMASKMOVQ (R12)(R9*8), Y15, Y7
	VPMASKMOVQ (R13)(R9*8), Y15, Y8
	VPMULDQ Y14, Y5, Y5
	VPMULDQ Y14, Y6, Y6
	VPMULDQ Y14, Y7, Y7
	VPMULDQ Y14, Y8, Y8
	VPADDQ Y5, Y0, Y0
	VPADDQ Y6, Y1, Y1
	VPADDQ Y7, Y2, Y2
	VPADDQ Y8, Y3, Y3

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
	VPADDQ (BX), Y0, Y0
	VMOVDQU Y0, (DX)
	ADDQ $32, BX
	ADDQ $32, DX
	LEAQ (R13)(R10*1), SI
	DECQ R8
	JNZ block

rows:
	TESTQ R14, R14
	JZ done

row:
	VPXOR Y0, Y0, Y0
	XORQ AX, AX
	TESTQ R9, R9
	JZ rowtail

rowvec:
	VMOVDQU (DI)(AX*8), Y4
	VPMULDQ (SI)(AX*8), Y4, Y5
	VPADDQ Y5, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, R9
	JB rowvec

rowtail:
	TESTQ CX, CX
	JZ rowfold
	VPMASKMOVQ (SI)(R9*8), Y15, Y5
	VPMULDQ Y14, Y5, Y5
	VPADDQ Y5, Y0, Y0

rowfold:
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ (BX), X1
	VPADDQ X1, X0, X0
	VMOVQ X0, (DX)
	ADDQ $8, BX
	ADDQ $8, DX
	ADDQ R10, SI
	DECQ R14
	JNZ row

done:
	VZEROUPPER
	RET
