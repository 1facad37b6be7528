#include "textflag.h"

// The function scan's class test (classscan.go has the Go reference): bit i
// of the mask is set iff popcount((sk[i]⊕q)>>8) ≤ cut. One ZMM holds eight
// sketches, so VPXORQ, VPSRLQ, VPOPCNTQ and a compare against the cut
// broadcast to every lane test eight of them and leave one mask byte. The
// compare is signed (VPCMPQ, predicate LE): a cut of −1 refuses every
// sketch, as the Go loop does.

// func classMasksVPOPCNT(sk *uint64, n int, q uint64, cut int64, mask *byte)
//
// Thirty-two sketches per iteration in four independent chains, then eight
// at a time, then the last one to seven through a masked load: the lanes
// past n are loaded as zero and left out of the compare, so their bits are
// clear.
//
// SI = sketch cursor, CX = sketches left, DI = mask cursor, Z30 = q in every
// lane, Z31 = the cut in every lane; AX carries a mask byte.
TEXT ·classMasksVPOPCNT(SB), NOSPLIT, $0-40
	MOVQ         sk+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         mask+32(FP), DI
	VPBROADCASTQ q+16(FP), Z30
	VPBROADCASTQ cut+24(FP), Z31
	CMPQ         CX, $32
	JLT          eight

thirtytwo:
	VPXORQ   (SI), Z30, Z0
	VPXORQ   64(SI), Z30, Z1
	VPXORQ   128(SI), Z30, Z2
	VPXORQ   192(SI), Z30, Z3
	VPSRLQ   $8, Z0, Z0
	VPSRLQ   $8, Z1, Z1
	VPSRLQ   $8, Z2, Z2
	VPSRLQ   $8, Z3, Z3
	VPOPCNTQ Z0, Z0
	VPOPCNTQ Z1, Z1
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPCMPQ   $2, Z31, Z0, K1
	VPCMPQ   $2, Z31, Z1, K2
	VPCMPQ   $2, Z31, Z2, K3
	VPCMPQ   $2, Z31, Z3, K4
	KMOVW    K1, AX
	MOVB     AX, (DI)
	KMOVW    K2, AX
	MOVB     AX, 1(DI)
	KMOVW    K3, AX
	MOVB     AX, 2(DI)
	KMOVW    K4, AX
	MOVB     AX, 3(DI)
	ADDQ     $256, SI
	ADDQ     $4, DI
	SUBQ     $32, CX
	CMPQ     CX, $32
	JGE      thirtytwo

eight:
	CMPQ     CX, $8
	JLT      tail
	VPXORQ   (SI), Z30, Z0
	VPSRLQ   $8, Z0, Z0
	VPOPCNTQ Z0, Z0
	VPCMPQ   $2, Z31, Z0, K1
	KMOVW    K1, AX
	MOVB     AX, (DI)
	ADDQ     $64, SI
	INCQ     DI
	SUBQ     $8, CX
	JMP      eight

tail:
	TESTQ       CX, CX
	JZ          done
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K2
	VMOVDQU64.Z (SI), K2, Z0
	VPXORQ      Z30, Z0, Z0
	VPSRLQ      $8, Z0, Z0
	VPOPCNTQ    Z0, Z0
	VPCMPQ      $2, Z31, Z0, K2, K1
	KMOVW       K1, AX
	MOVB        AX, (DI)

done:
	VZEROUPPER
	RET
