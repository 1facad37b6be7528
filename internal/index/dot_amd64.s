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

// The two kernels are one body (dot_amd64.h) around one step, MAC: cvt
// holds element j of a block's four rows widened to float64, bc holds q[j]
// in all four lanes, and acc += cvt·bc in every lane. Without FMA that is
// VMULPD into tmp, then VADDPD: what the scalar loop's MULSD and ADDSD do
// for each row, with the same roundings. With FMA it is one instruction that
// rounds once — to the same bits, because the product of two widened
// float32 values has at most 48 significant bits and is exact in float64
// before the add either way (DESIGN.md §12). tmp may be cvt itself when
// nothing reads cvt afterwards.

// func dotBlocksAVX(q *float64, nq, dim int, data *float32, nblk int, out *float64)
#define MAC(cvt, bc, acc, tmp) \
	VMULPD bc, cvt, tmp  \
	VADDPD tmp, acc, acc

TEXT ·dotBlocksAVX(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ nq+8(FP), SI
	MOVQ dim+16(FP), CX
	MOVQ data+24(FP), BX
	MOVQ nblk+32(FP), DX
	MOVQ out+40(FP), R8
#include "dot_amd64.h"

#undef MAC

// func dotBlocksFMA(q *float64, nq, dim int, data *float32, nblk int, out *float64)
#define MAC(cvt, bc, acc, tmp) \
	VFMADD231PD bc, cvt, acc

TEXT ·dotBlocksFMA(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ nq+8(FP), SI
	MOVQ dim+16(FP), CX
	MOVQ data+24(FP), BX
	MOVQ nblk+32(FP), DX
	MOVQ out+40(FP), R8
#include "dot_amd64.h"
