#include "textflag.h"

// func hasAVX() bool
//
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), then XCR0 bits 1 and 2: the
// OS saves XMM and YMM state across context switches.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// One block of the arena: Y8 holds q[j] in all four lanes, off(base) is
// element j of the block's four rows. Widen, multiply, add: each lane does
// what the scalar loop's CVTSS2SD, MULSD and ADDSD do for its row, with
// the same roundings. AVX only, no FMA.
#define LANES(src, tmp, acc) \
	VCVTPS2PD src, tmp      \
	VMULPD    Y8, tmp, tmp  \
	VADDPD    tmp, acc, acc

// func dotBlocksAVX(q *float64, dim int, data *float32, nblk int, out *float64)
//
// Requires dim ≥ 1 and nblk ≥ 1. Eight blocks per outer iteration: eight
// independent accumulators keep both FP ports busy across the add latency
// and share each q[j] broadcast; then one block at a time.
//
// Each step of the eight-block loop also prefetches two cache lines of the
// next eight blocks (128·dim bytes in all: exactly those blocks). The eight
// short streams are a pattern the hardware prefetcher does not follow, and
// without this the kernel runs at half speed whenever the arena comes from
// L3 instead of L2 — which then decides how one run compares with the
// next. A prefetch past the end of the arena is dropped, never a fault.
TEXT ·dotBlocksAVX(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ dim+8(FP), CX
	MOVQ data+16(FP), DI
	MOVQ nblk+24(FP), DX
	MOVQ out+32(FP), R8
	MOVQ CX, R9
	SHLQ $4, R9            // bytes per block
	LEAQ (R9)(R9*2), R10   // three blocks

	CMPQ DX, $8
	JLT  single

eight:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX          // &q[j]
	MOVQ   DI, BX          // element j of blocks 0-3
	LEAQ   (DI)(R9*4), R11 // element j of blocks 4-7
	LEAQ   (DI)(R9*8), R13 // the next eight blocks, 128 bytes per step
	MOVQ   CX, R12

eightElem:
	VBROADCASTSD (AX), Y8
	LANES((BX), Y9, Y0)
	LANES((BX)(R9*1), Y10, Y1)
	LANES((BX)(R9*2), Y11, Y2)
	LANES((BX)(R10*1), Y12, Y3)
	LANES((R11), Y13, Y4)
	LANES((R11)(R9*1), Y14, Y5)
	LANES((R11)(R9*2), Y15, Y6)
	LANES((R11)(R10*1), Y9, Y7)
	ADDQ $8, AX
	ADDQ $16, BX
	ADDQ $16, R11
	PREFETCHT0 (R13)
	PREFETCHT0 64(R13)
	ADDQ $128, R13
	DECQ R12
	JNZ  eightElem

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 128(R8)
	VMOVUPD Y5, 160(R8)
	VMOVUPD Y6, 192(R8)
	VMOVUPD Y7, 224(R8)
	ADDQ    $256, R8
	LEAQ    (DI)(R9*8), DI
	SUBQ    $8, DX
	CMPQ    DX, $8
	JGE     eight
	TESTQ   DX, DX
	JZ      done

single:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   CX, R12

singleElem:
	VBROADCASTSD (AX), Y8
	LANES((BX), Y9, Y0)
	ADDQ $8, AX
	ADDQ $16, BX
	DECQ R12
	JNZ  singleElem

	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    R9, DI
	DECQ    DX
	JNZ     single

done:
	VZEROUPPER
	RET
