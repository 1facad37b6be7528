#include "textflag.h"

// The screen's kernels (screen.go has the layout and the Go reference). A
// 16-row block of the arena is groups 64-byte groups, and dword l of group k
// holds elements 4k…4k+3 of row l as unsigned bytes. The VNNI kernel reads
// the query rows a quad at a time, groups 16-byte steps in which dword g of
// step k holds the same elements of row g as signed bytes; the AVX2 kernel
// reads them a pair at a time, the same elements as int16 words
// (pairWords). Each kernel sums, per (query row, arena row), the products
// of the two in int32 — exactly, so the two kernels agree with
// screenBlocksGo bit for bit — and compares the sixteen sums of a block
// with the query row's threshold: sixteen bits, spread by PDEP with
// 0x0F0F0F0F to one byte per 4-row block, the mask format the scan walks.
// Both take all of a chunk's query rows in one call, so the assembly
// returns to Go once per chunk.

// maskRow is scanChunk: the bytes from one query row's block masks to the
// next row's.
#define maskRow 64

// MASK compares the sums of one (query row, block) in acc with the
// threshold in all lanes of thr — "not less than", signed — and stores the
// four mask bytes at off(DI).
#define MASK(acc, thr, off) \
	VPCMPD $5, thr, acc, K1 \
	KMOVW  K1, BX           \
	PDEPL  DX, BX, BX       \
	MOVL   BX, off(DI)

// func screenBlocksVNNI(q *int8, nquad, groups int, data *byte, nblk int, thr *int32, mask *byte)
//
// Four blocks per outer iteration, sixteen ZMM accumulators: Z(4b+g) sums
// query row g of the quad against block b. A step broadcasts the quad's
// four query dwords (Z20–Z23) and loads group k of the four blocks
// (Z16–Z19); each VPDPBUSD then adds four byte products to every row of a
// block — 64 multiply-adds an instruction, sixteen independent chains
// against its latency, eight loads per sixteen of them. Blocks left over go
// one at a time, the query dwords broadcast from memory by the instruction
// itself. The thresholds of a quad stay in Z24–Z27.
//
// AX = query step cursor, CX = threshold cursor, DX = the PDEP mask,
// SI = quads left, DI = mask cursor, R8 = the quad's first mask row,
// R9 = bytes per quad (16·groups), R11 = block cursor, R12 = blocks left,
// R13 = bytes per block (64·groups), R14 = three blocks; BX counts steps.
TEXT ·screenBlocksVNNI(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ nquad+8(FP), SI
	MOVQ groups+16(FP), R9
	MOVQ thr+40(FP), CX
	MOVQ mask+48(FP), R8
	MOVQ R9, R13
	SHLQ $6, R13
	LEAQ (R13)(R13*2), R14
	SHLQ $4, R9
	MOVL $0x0F0F0F0F, DX

vquad:
	VPBROADCASTD (CX), Z24
	VPBROADCASTD 4(CX), Z25
	VPBROADCASTD 8(CX), Z26
	VPBROADCASTD 12(CX), Z27
	MOVQ         data+24(FP), R11
	MOVQ         nblk+32(FP), R12
	MOVQ         R8, DI
	CMPQ         R12, $4
	JLT          vone

vfour:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ   groups+16(FP), BX

vfourStep:
	VPBROADCASTD (AX), Z20
	VPBROADCASTD 4(AX), Z21
	VPBROADCASTD 8(AX), Z22
	VPBROADCASTD 12(AX), Z23
	VMOVDQU32    (R11), Z16
	VPDPBUSD     Z20, Z16, Z0
	VPDPBUSD     Z21, Z16, Z1
	VPDPBUSD     Z22, Z16, Z2
	VPDPBUSD     Z23, Z16, Z3
	VMOVDQU32    (R11)(R13*1), Z17
	VPDPBUSD     Z20, Z17, Z4
	VPDPBUSD     Z21, Z17, Z5
	VPDPBUSD     Z22, Z17, Z6
	VPDPBUSD     Z23, Z17, Z7
	VMOVDQU32    (R11)(R13*2), Z18
	VPDPBUSD     Z20, Z18, Z8
	VPDPBUSD     Z21, Z18, Z9
	VPDPBUSD     Z22, Z18, Z10
	VPDPBUSD     Z23, Z18, Z11
	VMOVDQU32    (R11)(R14*1), Z19
	VPDPBUSD     Z20, Z19, Z12
	VPDPBUSD     Z21, Z19, Z13
	VPDPBUSD     Z22, Z19, Z14
	VPDPBUSD     Z23, Z19, Z15
	ADDQ         $16, AX
	ADDQ         $64, R11
	DECQ         BX
	JNZ          vfourStep

	MASK(Z0, Z24, 0)
	MASK(Z1, Z25, maskRow)
	MASK(Z2, Z26, 2*maskRow)
	MASK(Z3, Z27, 3*maskRow)
	MASK(Z4, Z24, 4)
	MASK(Z5, Z25, maskRow+4)
	MASK(Z6, Z26, 2*maskRow+4)
	MASK(Z7, Z27, 3*maskRow+4)
	MASK(Z8, Z24, 8)
	MASK(Z9, Z25, maskRow+8)
	MASK(Z10, Z26, 2*maskRow+8)
	MASK(Z11, Z27, 3*maskRow+8)
	MASK(Z12, Z24, 12)
	MASK(Z13, Z25, maskRow+12)
	MASK(Z14, Z26, 2*maskRow+12)
	MASK(Z15, Z27, 3*maskRow+12)
	ADDQ $16, DI
	SUBQ R9, AX
	ADDQ R14, R11
	SUBQ $4, R12
	CMPQ R12, $4
	JGE  vfour
	TESTQ R12, R12
	JZ   vnext

vone:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   groups+16(FP), BX

voneStep:
	VMOVDQU32     (R11), Z16
	VPDPBUSD.BCST (AX), Z16, Z0
	VPDPBUSD.BCST 4(AX), Z16, Z1
	VPDPBUSD.BCST 8(AX), Z16, Z2
	VPDPBUSD.BCST 12(AX), Z16, Z3
	ADDQ          $16, AX
	ADDQ          $64, R11
	DECQ          BX
	JNZ           voneStep

	MASK(Z0, Z24, 0)
	MASK(Z1, Z25, maskRow)
	MASK(Z2, Z26, 2*maskRow)
	MASK(Z3, Z27, 3*maskRow)
	ADDQ $4, DI
	SUBQ R9, AX
	DECQ R12
	JNZ  vone

vnext:
	ADDQ R9, AX
	ADDQ $16, CX
	ADDQ $4*maskRow, R8
	DECQ SI
	JNZ  vquad
	VZEROUPPER
	RET

// MADD adds the products of the query words in q and the arena words in d,
// in pairs, to the eight row sums in acc; tmp is clobbered.
#define MADD(q, d, acc, tmp) \
	VPMADDWD q, d, tmp   \
	VPADDD   tmp, acc, acc

// ROWMASK compares the sums of rows 0–7 (lo) and 8–15 (hi) of a block with
// the threshold in all lanes of thr and stores the four mask bytes at
// off(DI): VPCMPGTD finds the rows below it and VMOVMSKPS takes one bit a
// row; the sixteen bits, inverted, are the rows that are not.
#define ROWMASK(lo, hi, thr, off) \
	VPCMPGTD  lo, thr, lo \
	VPCMPGTD  hi, thr, hi \
	VMOVMSKPS lo, BX      \
	VMOVMSKPS hi, R10     \
	SHLL      $8, R10     \
	ORL       R10, BX     \
	NOTL      BX          \
	PDEPL     DX, BX, BX  \
	MOVL      BX, off(DI)

// func screenBlocksAVX2(q *int16, npair, groups int, data *byte, nblk int, thr *int32, mask *byte)
//
// Two query rows at a time, one block at a time. A step loads group k of
// the block as two YMM of eight rows each and splits each into its even
// bytes (VPAND 0x00FF) and its odd ones (VPSRLW 8): int16 words holding
// elements 4k and 4k+2, and 4k+1 and 4k+3, of the row in that dword. The
// query side was split the same way ahead of time (screen.go, pairWords),
// so VPMADDWD of the even halves adds two products into each row's dword
// lane and VPMADDWD of the odd ones the other two: no widening shuffle, no
// horizontal add, lane l is row l. The products fit int16 × int16 → int32
// and the sums are exact, so they are the VNNI kernel's.
//
// Y0/Y1 sum rows 0–7/8–15 of the block against the first query row of the
// pair, Y2/Y3 against the second; Y4/Y5 hold their thresholds, Y8–Y11 the
// split data, Y12 the 0x00FF words, Y13/Y14 a row's query words and Y15
// the products.
//
// AX = query step cursor, CX = threshold cursor, DX = the PDEP mask,
// SI = pairs left, DI = mask cursor, R8 = the pair's first mask row,
// R9 = bytes per pair (16·groups), R11 = block cursor, R12 = blocks left;
// BX counts steps, and BX and R10 gather a row's mask bits.
TEXT ·screenBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ      q+0(FP), AX
	MOVQ      npair+8(FP), SI
	MOVQ      groups+16(FP), R9
	MOVQ      thr+40(FP), CX
	MOVQ      mask+48(FP), R8
	SHLQ      $4, R9
	MOVL      $0x0F0F0F0F, DX
	VPCMPEQW  Y12, Y12, Y12
	VPSRLW    $8, Y12, Y12

apair:
	VPBROADCASTD (CX), Y4
	VPBROADCASTD 4(CX), Y5
	MOVQ         data+24(FP), R11
	MOVQ         nblk+32(FP), R12
	MOVQ         R8, DI

ablock:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  groups+16(FP), BX

astep:
	VMOVDQU      (R11), Y8
	VMOVDQU      32(R11), Y10
	VPSRLW       $8, Y8, Y9
	VPAND        Y12, Y8, Y8
	VPSRLW       $8, Y10, Y11
	VPAND        Y12, Y10, Y10
	VPBROADCASTD (AX), Y13
	VPBROADCASTD 4(AX), Y14
	MADD(Y13, Y8, Y0, Y15)
	MADD(Y14, Y9, Y0, Y15)
	MADD(Y13, Y10, Y1, Y15)
	MADD(Y14, Y11, Y1, Y15)
	VPBROADCASTD 8(AX), Y13
	VPBROADCASTD 12(AX), Y14
	MADD(Y13, Y8, Y2, Y15)
	MADD(Y14, Y9, Y2, Y15)
	MADD(Y13, Y10, Y3, Y15)
	MADD(Y14, Y11, Y3, Y15)
	ADDQ         $16, AX
	ADDQ         $64, R11
	DECQ         BX
	JNZ          astep

	ROWMASK(Y0, Y1, Y4, 0)
	ROWMASK(Y2, Y3, Y5, maskRow)
	ADDQ $4, DI
	SUBQ R9, AX
	DECQ R12
	JNZ  ablock

	ADDQ R9, AX
	ADDQ $8, CX
	ADDQ $2*maskRow, R8
	DECQ SI
	JNZ  apair
	VZEROUPPER
	RET
