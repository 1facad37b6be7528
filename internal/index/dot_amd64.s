#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// The two exact kernels are one body (dot_amd64.h) around one step, MAC: cvt
// holds element j of a block's four rows widened to float64, bc holds the
// query row's element j, widened, in all four lanes, and acc += cvt·bc in
// every lane. Without FMA that is
// VMULPD into tmp, then VADDPD: what the scalar loop's MULSD and ADDSD do
// for each row, with the same roundings. With FMA it is one instruction that
// rounds once — to the same bits, because the product of two widened
// float32 values has at most 48 significant bits and is exact in float64
// before the add either way (DESIGN.md §12). tmp may be cvt itself when
// nothing reads cvt afterwards.

// func dotBlocksAVX(q *float32, dim int, data *float32, nblk int, out *float64)
#define MAC(cvt, bc, acc, tmp) \
	VMULPD bc, cvt, tmp  \
	VADDPD tmp, acc, acc

TEXT ·dotBlocksAVX(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ dim+8(FP), CX
	MOVQ data+16(FP), BX
	MOVQ nblk+24(FP), DX
	MOVQ out+32(FP), R8
#include "dot_amd64.h"

#undef MAC

// func dotBlocksFMA(q *float32, dim int, data *float32, nblk int, out *float64)
#define MAC(cvt, bc, acc, tmp) \
	VFMADD231PD bc, cvt, acc

TEXT ·dotBlocksFMA(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ dim+8(FP), CX
	MOVQ data+16(FP), BX
	MOVQ nblk+24(FP), DX
	MOVQ out+32(FP), R8
#include "dot_amd64.h"

