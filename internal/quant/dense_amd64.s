#include "textflag.h"

// tailMask<> from byte offset 8·(16−k) is the load mask of k int64s in four
// registers: k lanes of all ones, then zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
DATA tailMask<>+64(SB)/8, $-1
DATA tailMask<>+72(SB)/8, $-1
DATA tailMask<>+80(SB)/8, $-1
DATA tailMask<>+88(SB)/8, $-1
DATA tailMask<>+96(SB)/8, $-1
DATA tailMask<>+104(SB)/8, $-1
DATA tailMask<>+112(SB)/8, $-1
DATA tailMask<>+120(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $256

// lowDwords<> is the VPERMD index that gathers the low dword of each int64
// lane into dwords 0–3, and again into dwords 4–7.
DATA lowDwords<>+0(SB)/4, $0
DATA lowDwords<>+4(SB)/4, $2
DATA lowDwords<>+8(SB)/4, $4
DATA lowDwords<>+12(SB)/4, $6
DATA lowDwords<>+16(SB)/4, $0
DATA lowDwords<>+20(SB)/4, $2
DATA lowDwords<>+24(SB)/4, $4
DATA lowDwords<>+28(SB)/4, $6
GLOBL lowDwords<>(SB), RODATA|NOPTR, $32

// x + int16Bias<> lies in [0, 2¹⁶) exactly when x lies in int16, that is
// when it has no bit of aboveInt16<> set.
DATA int16Bias<>+0(SB)/8, $0x8000
GLOBL int16Bias<>(SB), RODATA|NOPTR, $8
DATA aboveInt16<>+0(SB)/8, $-0x10000
GLOBL aboveInt16<>(SB), RODATA|NOPTR, $8

// PACK16 packs the sixteen int64s in Y0–Y3 into int16s at (DI)(AX*2): a
// VPERMD each gathers their low dwords, two VPBLENDDs pair them into eight
// int32s, one VPACKSSDW narrows them to sixteen int16s in the order 0–3,
// 8–11, 4–7, 12–15, and a VPERMQ puts them back in order. It ORs x + 2¹⁵ of
// every lane into Y13.
#define PACK16 \
	VPADDQ Y14, Y0, Y4; \
	VPADDQ Y14, Y1, Y5; \
	VPADDQ Y14, Y2, Y6; \
	VPADDQ Y14, Y3, Y7; \
	VPOR Y5, Y4, Y4; \
	VPOR Y7, Y6, Y6; \
	VPOR Y4, Y13, Y13; \
	VPOR Y6, Y13, Y13; \
	VPERMD Y0, Y15, Y0; \
	VPERMD Y1, Y15, Y1; \
	VPERMD Y2, Y15, Y2; \
	VPERMD Y3, Y15, Y3; \
	VPBLENDD $0xf0, Y1, Y0, Y0; \
	VPBLENDD $0xf0, Y3, Y2, Y2; \
	VPACKSSDW Y2, Y0, Y0; \
	VPERMQ $0xd8, Y0, Y0; \
	VMOVDQU Y0, (DI)(AX*2)

// func dense16(w []int16, b, x []int64, x16 []int16, dst []int64) bool
//
// Pack: sixteen inputs per step, four VMOVDQUs and a PACK16. The len(x)%16
// left take one more step on masked loads, which read nothing past x's end
// and give zeros up to s = len(x16). A bit above the low 16 set in Y13 means
// some x is outside int16, and the call returns false before it writes dst.
//
// Layer: row i of the slab is w[i·s:(i+1)·s]. Per sixteen columns, one
// VMOVDQU of x16 and per row one VPMADDWD, which multiplies int16 pairs and
// adds each pair into an int32 lane, and one VPADDD into the row's
// accumulator (the first step's products are the accumulator). Full
// four-row blocks accumulate in Y0–Y3, fold with three VPHADDDs and one add
// of the two halves into four int32 sums, widen them with VPMOVSXDQ, add b's
// four and store four of dst; each of the len(dst)%4 rows left accumulates
// in Y0 alone and folds to one lane.
TEXT ·dense16(SB), NOSPLIT, $0-121
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ x16_base+72(FP), DI
	MOVQ x16_len+80(FP), R9
	VMOVDQU lowDwords<>(SB), Y15
	VPBROADCASTQ int16Bias<>(SB), Y14
	VPXOR Y13, Y13, Y13
	MOVQ CX, R10
	ANDQ $-16, R10 // inputs in whole sixteens
	XORQ AX, AX
	TESTQ R10, R10
	JZ packtail

pack:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VMOVDQU 64(SI)(AX*8), Y2
	VMOVDQU 96(SI)(AX*8), Y3
	PACK16
	ADDQ $16, AX
	CMPQ AX, R10
	JB pack

packtail:
	CMPQ AX, R9
	JAE check
	MOVQ AX, R11
	SUBQ CX, R11
	LEAQ tailMask<>+128(SB), R12
	LEAQ (R12)(R11*8), R12 // the mask of the len(x)−AX inputs left
	VMOVDQU (R12), Y4
	VMOVDQU 32(R12), Y5
	VMOVDQU 64(R12), Y6
	VMOVDQU 96(R12), Y7
	VPMASKMOVQ (SI)(AX*8), Y4, Y0
	VPMASKMOVQ 32(SI)(AX*8), Y5, Y1
	VPMASKMOVQ 64(SI)(AX*8), Y6, Y2
	VPMASKMOVQ 96(SI)(AX*8), Y7, Y3
	PACK16

check:
	VPBROADCASTQ aboveInt16<>(SB), Y12
	VPTEST Y12, Y13
	JNZ outside
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ dst_base+96(FP), DX
	MOVQ dst_len+104(FP), R8
	LEAQ (R9)(R9*1), R10 // row stride in bytes
	MOVQ R8, R14
	ANDQ $3, R14         // rows left after the blocks
	SHRQ $2, R8          // whole four-row blocks
	JZ rows

block:
	LEAQ (SI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	VMOVDQU (DI), Y4
	VPMADDWD (SI), Y4, Y0
	VPMADDWD (R11), Y4, Y1
	VPMADDWD (R12), Y4, Y2
	VPMADDWD (R13), Y4, Y3
	MOVQ $32, AX
	CMPQ AX, R10
	JAE fold

blockvec:
	VMOVDQU (DI)(AX*1), Y4
	VPMADDWD (SI)(AX*1), Y4, Y5
	VPMADDWD (R11)(AX*1), Y4, Y6
	VPMADDWD (R12)(AX*1), Y4, Y7
	VPMADDWD (R13)(AX*1), Y4, Y8
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPADDD Y7, Y2, Y2
	VPADDD Y8, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, R10
	JB blockvec

fold:
	// Y0 = (r0 0+1, r0 2+3, r1 0+1, r1 2+3 | the same of lanes 4–7), Y2
	// likewise for rows 2 and 3; then Y0 = (r0, r1, r2, r3 | r0, r1, r2, r3)
	// over lanes 0–3 and 4–7, whose halves add to the four sums.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPMOVSXDQ X0, Y0
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
	VMOVDQU (DI), Y4
	VPMADDWD (SI), Y4, Y0
	MOVQ $32, AX
	CMPQ AX, R10
	JAE rowfold

rowvec:
	VMOVDQU (DI)(AX*1), Y4
	VPMADDWD (SI)(AX*1), Y4, Y5
	VPADDD Y5, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R10
	JB rowvec

rowfold:
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPADDD X1, X0, X0
	VPMOVSXDQ X0, X0
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
	MOVB $1, ret+120(FP)
	RET

outside:
	VZEROUPPER
	MOVB $0, ret+120(FP)
	RET
