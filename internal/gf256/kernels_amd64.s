#include "textflag.h"

// AVX2 split-nibble kernels (see kernels.go). Register plan, both kernels:
// Y0/Y1 = the coefficient's mulLo/mulHi rows in both 128-bit lanes,
// Y2 = 0x0f in every byte, SI/DI = src/dst cursors, CX = 32-byte blocks left.

// PRODUCT leaves c times the 32 bytes at SI in lo; hi is scratch. Per byte
// x the product is mulLo[c][x&15] ^ mulHi[c][x>>4], sixteen-way per VPSHUFB
// lane.
#define PRODUCT(lo, hi) \
	VMOVDQU (SI), lo    \
	VPSRLQ  $4, lo, hi  \
	VPAND   Y2, lo, lo  \
	VPAND   Y2, hi, hi  \
	VPSHUFB lo, Y0, lo  \
	VPSHUFB hi, Y1, hi  \
	VPXOR   lo, hi, lo

// SETUP loads the arguments and broadcasts the tables; jumps to done when
// src holds no whole 32-byte block.
#define SETUP \
	MOVQ           lo+0(FP), AX           \
	MOVQ           hi+8(FP), BX           \
	MOVQ           src_base+16(FP), SI    \
	MOVQ           src_len+24(FP), CX     \
	MOVQ           dst_base+40(FP), DI    \
	SHRQ           $5, CX                 \
	JZ             done                   \
	VBROADCASTI128 (AX), Y0               \
	VBROADCASTI128 (BX), Y1               \
	MOVQ           $0x0f0f0f0f0f0f0f0f, AX \
	VMOVQ          AX, X2                 \
	VPBROADCASTQ   X2, Y2

// func mulAddVec(lo, hi *[16]byte, src, dst []byte)
TEXT ·mulAddVec(SB), NOSPLIT, $0-64
	SETUP

loop:
	PRODUCT(Y3, Y4)
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func mulVec(lo, hi *[16]byte, src, dst []byte)
TEXT ·mulVec(SB), NOSPLIT, $0-64
	SETUP

loop:
	PRODUCT(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
