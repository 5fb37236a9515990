#include "textflag.h"

// AVX2 float64 GEMM row kernel (DESIGN.md §10, "Kernels").
//
// gemmRowAVX2 computes, for each column c in [0, w) and p ascending in
// [0, k):
//
//	dst[c] = dst[c] + a[p*lda]*b[p*ldb+c]
//
// Every element gets the generic loop's rounding sequence: one VMULPD
// product, then one VADDPD into the accumulator, never a fused
// multiply-add. Column tiles of 32, 16, 8 and 4 stay in registers for
// the whole ascending-p loop and are stored once. w must be a multiple
// of 4. The kernel never skips a term; the Go drivers call it only where
// the generic loops' zero-skip is unobservable.
//
// Registers:
//
//	DI  dst tile             SI  a, element p = 0
//	DX  b tile, row p = 0    CX  k
//	R8  a stride (bytes)     R9  b row stride (bytes)
//	R10 columns left         R11 a cursor, R12 b cursor, R13 p countdown
//	Y0–Y7 accumulators       Y8 broadcast a[p], Y10–Y13 products

// STEP folds one 4-column vector of row p into acc:
// acc = acc + a[p]*b[p][off:off+4].
#define STEP(off, acc, tmp) \
	VMULPD off(R12), Y8, tmp; \
	VADDPD tmp, acc, acc

// PSTART points the p cursors at p = 0 for a tile. PLOAD broadcasts
// a[p]. PNEXT steps to p+1 and sets the flags for the loop's JNZ.
#define PSTART \
	MOVQ SI, R11; \
	MOVQ DX, R12; \
	MOVQ CX, R13

#define PLOAD \
	VBROADCASTSD (R11), Y8

#define PNEXT \
	ADDQ R8, R11; \
	ADDQ R9, R12; \
	DECQ R13

// func gemmRowAVX2(dst, a, b *float64, k, lda, ldb, w int)
TEXT ·gemmRowAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ lda+32(FP), R8
	SHLQ $3, R8
	MOVQ ldb+40(FP), R9
	SHLQ $3, R9
	MOVQ w+48(FP), R10

tile32:
	CMPQ    R10, $32
	JLT     tile16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	PSTART
	TESTQ   R13, R13
	JZ      store32

loop32:
	PLOAD
	STEP(0, Y0, Y10)
	STEP(32, Y1, Y11)
	STEP(64, Y2, Y12)
	STEP(96, Y3, Y13)
	STEP(128, Y4, Y10)
	STEP(160, Y5, Y11)
	STEP(192, Y6, Y12)
	STEP(224, Y7, Y13)
	PNEXT
	JNZ     loop32

store32:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, R10
	JMP     tile32

tile16:
	CMPQ    R10, $16
	JLT     tile8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	PSTART
	TESTQ   R13, R13
	JZ      store16

loop16:
	PLOAD
	STEP(0, Y0, Y10)
	STEP(32, Y1, Y11)
	STEP(64, Y2, Y12)
	STEP(96, Y3, Y13)
	PNEXT
	JNZ     loop16

store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, R10

tile8:
	CMPQ    R10, $8
	JLT     tile4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	PSTART
	TESTQ   R13, R13
	JZ      store8

loop8:
	PLOAD
	STEP(0, Y0, Y10)
	STEP(32, Y1, Y11)
	PNEXT
	JNZ     loop8

store8:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, R10

tile4:
	CMPQ    R10, $4
	JLT     done
	VMOVUPD 0(DI), Y0
	PSTART
	TESTQ   R13, R13
	JZ      store4

loop4:
	PLOAD
	STEP(0, Y0, Y10)
	PNEXT
	JNZ     loop4

store4:
	VMOVUPD Y0, 0(DI)

done:
	VZEROUPPER
	RET

// func anyBitsAVX2(x *float64, n int, mask, want uint64) bool
//
// anyBitsAVX2 reports whether some x[i], i < n, has bits&mask == want.
// n must be a multiple of 4.
TEXT ·anyBitsAVX2(SB), NOSPLIT, $0-33
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VPBROADCASTQ mask+16(FP), Y1
	VPBROADCASTQ want+24(FP), Y2
	VPXOR        Y0, Y0, Y0
	SHRQ         $2, CX
	JZ           anydone

anyloop:
	VPAND    (SI), Y1, Y3
	VPCMPEQQ Y2, Y3, Y3
	VPOR     Y3, Y0, Y0
	ADDQ     $32, SI
	DECQ     CX
	JNZ      anyloop

anydone:
	VPTEST     Y0, Y0
	SETNE      ret+32(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
