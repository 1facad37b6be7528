#include "textflag.h"

// The walk's bound filter (bound.go has the Go reference): a posting is
// kept iff its set's bound b is at least below (ordered: a NaN is never
// kept), and its set is listed to settle iff Float64bits(b) is below
// Float64bits(below) (unsigned: a negative bound, a settled set, never is).
// One ZMM holds sixteen set IDs; two VGATHERDPD read their bounds, eight
// each, two compares per half give the keep and settle masks, and
// VPCOMPRESSD packs the kept IDs, the kept positions and the settling IDs
// to the front of a register, which a masked store writes: exactly the
// entries the Go loop keeps, in its order, and nothing past them.

// func partitionPostingsAVX512(sids, poss *int32, m int, bound *float64, nb int, below float64, ks, kp, fs *int32) (done, n, f int)
//
// Sixteen postings per iteration; the last one to fifteen through masked
// loads and gathers, whose inactive lanes read nothing and are left out of
// both masks. A block holding a set ID outside [0, nb) stops the kernel
// before it reads a bound: done is the postings filtered before it, and
// the caller's Go loop takes the rest, index checks included. n and f count
// the entries written to ks/kp and to fs.
//
// SI = set ID cursor, DX = position cursor, R13 = postings left, BX = bound,
// DI/R10/R11 = ks/kp/fs cursors, Z30 = nb and Z31 = below in every lane;
// K1 holds the block's lanes, K5 their upper eight.
TEXT ·partitionPostingsAVX512(SB), NOSPLIT, $0-96
	MOVQ          sids+0(FP), SI
	MOVQ          poss+8(FP), DX
	MOVQ          m+16(FP), R13
	MOVQ          bound+24(FP), BX
	MOVQ          nb+32(FP), AX
	VPBROADCASTD  AX, Z30
	VBROADCASTSD  below+40(FP), Z31
	MOVQ          ks+48(FP), DI
	MOVQ          kp+56(FP), R10
	MOVQ          fs+64(FP), R11

block:
	TESTQ         R13, R13
	JLE           out
	MOVL          $0xffff, AX
	CMPQ          R13, $16
	JGE           lanes
	MOVQ          R13, CX
	MOVL          $1, AX
	SHLL          CX, AX
	DECL          AX

lanes:
	KMOVW         AX, K1
	VMOVDQU32.Z   (SI), K1, Z0
	VPCMPUD       $5, Z30, Z0, K1, K2 // set IDs at or past nb, negatives included
	KORTESTW      K2, K2
	JNZ           out
	VMOVDQU32.Z   (DX), K1, Z1
	VEXTRACTI64X4 $1, Z0, Y2
	KMOVW         K1, K3
	KSHIFTRW      $8, K1, K5
	KMOVW         K5, K4
	VGATHERDPD    (BX)(Y0*8), K3, Z3 // clears K3
	VGATHERDPD    (BX)(Y2*8), K4, Z4 // clears K4
	VCMPPD        $0x1d, Z31, Z3, K1, K2 // GE_OQ: kept, lower eight
	VCMPPD        $0x1d, Z31, Z4, K5, K3 // upper eight
	KUNPCKBW      K2, K3, K2
	VPCMPUQ       $1, Z31, Z3, K1, K3 // LT on the bits: to settle, lower eight
	VPCMPUQ       $1, Z31, Z4, K5, K4 // upper eight
	KUNPCKBW      K3, K4, K3
	VPCOMPRESSD   Z0, K2, Z5
	VPCOMPRESSD   Z1, K2, Z6
	VPCOMPRESSD   Z0, K3, Z7

	// The kept: the first popcount(K2) lanes of Z5 and Z6.
	KMOVW         K2, AX
	POPCNTL       AX, CX
	MOVL          $1, AX
	SHLL          CX, AX
	DECL          AX
	KMOVW         AX, K4
	VMOVDQU32     Z5, K4, (DI)
	VMOVDQU32     Z6, K4, (R10)
	LEAQ          (DI)(CX*4), DI
	LEAQ          (R10)(CX*4), R10

	// The settling: the first popcount(K3) lanes of Z7.
	KMOVW         K3, AX
	POPCNTL       AX, CX
	MOVL          $1, AX
	SHLL          CX, AX
	DECL          AX
	KMOVW         AX, K4
	VMOVDQU32     Z7, K4, (R11)
	LEAQ          (R11)(CX*4), R11

	ADDQ          $64, SI
	ADDQ          $64, DX
	SUBQ          $16, R13
	JMP           block

out:
	XORQ          AX, AX
	CMPQ          R13, AX
	CMOVQLT       AX, R13 // past the end after a partial block
	MOVQ          m+16(FP), AX
	SUBQ          R13, AX
	MOVQ          AX, done+72(FP)
	SUBQ          ks+48(FP), DI
	SHRQ          $2, DI
	MOVQ          DI, n+80(FP)
	SUBQ          fs+64(FP), R11
	SHRQ          $2, R11
	MOVQ          R11, f+88(FP)
	VZEROUPPER
	RET
