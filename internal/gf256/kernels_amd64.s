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

// AFFINE accumulates the product of matrix m with the source columns Y4
// and Y5 into acc0 and acc1; Y6 is scratch.
#define AFFINE(m, acc0, acc1) \
	VGF2P8AFFINEQB $0, m, Y4, Y6 \
	VPXOR          Y6, acc0, acc0 \
	VGF2P8AFFINEQB $0, m, Y5, Y6 \
	VPXOR          Y6, acc1, acc1

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

// func mulRowPair(aff *[4]uint64, next, stride int, in [][]byte, out0, out1 []byte)
// The fused GFNI row product (Rows.MulRows), two rows and two 32-byte
// columns per pass: Y0/Y1 accumulate row 0's columns, Y2/Y3 row 1's. BX
// walks row 0's matrices by stride, R11 = next is row 1's offset; SI
// walks the source slice headers and CX counts them. DX is the column
// offset and DI = n-64, the last pass, which overlaps the one before it
// when n is an odd number of 32-byte columns: a pass overwrites, so
// recomputing a column is harmless.
TEXT ·mulRowPair(SB), NOSPLIT, $0-96
	MOVQ out0_base+48(FP), R9
	MOVQ out1_base+72(FP), R10
	MOVQ out0_len+56(FP), DI
	SUBQ $64, DI
	MOVQ next+8(FP), R11
	XORQ DX, DX

column:
	MOVQ  aff+0(FP), BX
	MOVQ  stride+16(FP), AX
	MOVQ  in_base+24(FP), SI
	MOVQ  in_len+32(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

source:
	MOVQ    0(SI), R8
	VMOVDQU (R8)(DX*1), Y4
	VMOVDQU 32(R8)(DX*1), Y5
	AFFINE((BX), Y0, Y1)
	AFFINE((BX)(R11*1), Y2, Y3)
	ADDQ    $24, SI
	ADDQ    AX, BX
	DECQ    CX
	JNZ     source
	VMOVDQU Y0, (R9)(DX*1)
	VMOVDQU Y1, 32(R9)(DX*1)
	VMOVDQU Y2, (R10)(DX*1)
	VMOVDQU Y3, 32(R10)(DX*1)
	CMPQ    DX, DI
	JAE     done
	ADDQ    $64, DX
	CMPQ    DX, DI
	CMOVQHI DI, DX
	JMP     column

done:
	VZEROUPPER
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
