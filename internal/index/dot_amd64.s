#include "textflag.h"

// func cpuFeatures() (avx, fma bool)
//
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), then XCR0 bits 1 and 2: the
// OS saves XMM and YMM state across context switches. With those, bit 12 of
// the same ECX is FMA.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, fma+1(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DI
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVB $1, avx+0(FP)
	BTL  $12, DI
	JCC  done
	MOVB $1, fma+1(FP)

done:
	RET

// The two exact kernels are one body (dot_amd64.h) around one step, MAC: cvt
// holds element j of a block's four rows widened to float64, bc holds q[j]
// in all four lanes, and acc += cvt·bc in every lane. Without FMA that is
// VMULPD into tmp, then VADDPD: what the scalar loop's MULSD and ADDSD do
// for each row, with the same roundings. With FMA it is one instruction that
// rounds once — to the same bits, because the product of two widened
// float32 values has at most 48 significant bits and is exact in float64
// before the add either way (DESIGN.md §12). tmp may be cvt itself when
// nothing reads cvt afterwards.
//
// The two screens are one body (screen_amd64.h) around the same step in
// float32, MACS: blk holds elements j, j+1 of a block's four rows, qx the
// same two elements of an expanded query row, and acc += blk·qx in all
// eight lanes. Here fusing does change bits, and may: a screen's sums only
// have to stay within the slack its cut allows for (vector.go, screenCut),
// and one rounding per step errs less than two.

// maskRow is scanChunk: the bytes from one query row's block masks to the
// next row's.
#define maskRow 64

// func dotBlocksAVX(q *float64, dim int, data *float32, nblk int, out *float64)
// func screenBlocksAVX(q *float32, npair, dim int, data *float32, nblk int, cut float32, mask *byte)
#define MAC(cvt, bc, acc, tmp) \
	VMULPD bc, cvt, tmp  \
	VADDPD tmp, acc, acc

#define MACS(blk, qx, acc, tmp) \
	VMULPS qx, blk, tmp  \
	VADDPS tmp, acc, acc

TEXT ·dotBlocksAVX(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ dim+8(FP), CX
	MOVQ data+16(FP), BX
	MOVQ nblk+24(FP), DX
	MOVQ out+32(FP), R8
#include "dot_amd64.h"

TEXT ·screenBlocksAVX(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ npair+8(FP), SI
	MOVQ dim+16(FP), CX
	MOVQ mask+48(FP), R8
#include "screen_amd64.h"

#undef MAC
#undef MACS

// func dotBlocksFMA(q *float64, dim int, data *float32, nblk int, out *float64)
// func screenBlocksFMA(q *float32, npair, dim int, data *float32, nblk int, cut float32, mask *byte)
#define MAC(cvt, bc, acc, tmp) \
	VFMADD231PD bc, cvt, acc

#define MACS(blk, qx, acc, tmp) \
	VFMADD231PS qx, blk, acc

TEXT ·dotBlocksFMA(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ dim+8(FP), CX
	MOVQ data+16(FP), BX
	MOVQ nblk+24(FP), DX
	MOVQ out+32(FP), R8
#include "dot_amd64.h"

TEXT ·screenBlocksFMA(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ npair+8(FP), SI
	MOVQ dim+16(FP), CX
	MOVQ mask+48(FP), R8
#include "screen_amd64.h"
