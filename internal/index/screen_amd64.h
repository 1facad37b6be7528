// The body of screenBlocksAVX and screenBlocksFMA (dot_amd64.s defines MACS
// and loads the arguments): AX = q, SI = npair ≥ 1, CX = dim ≥ 1, R8 = mask;
// data and nblk ≥ 1 are read from the frame once per pair of query rows.
//
// One 32-byte load of the arena is elements j, j+1 of a block's four rows
// — float32 lanes [r0 r1 r2 r3 | r0 r1 r2 r3] — and the query rows at q are
// expanded to match: element j four times, then element j+1 four times, so
// an expanded row is as long as a block (R9 bytes) and steps with it. Each
// block load is multiplied into two query rows' accumulators; after ⌊dim/2⌋
// steps the two halves of an accumulator are added, which leaves one
// float32 sum per arena row in an XMM register. An odd stride takes one
// more 128-bit step for its lone last element: a 32-byte load there would
// read into the next block, or past the arena. The sums are compared "not
// less than" with cut in every lane of Y15 (predicate 5: true for ≥ and
// for NaN) and the four sign bits go to the block's mask byte, row A's at
// (DI), row B's maskRow bytes on (scanChunk: dot_amd64.s defines it).
//
// Four blocks per outer iteration: 2 × 4 accumulators (Y0–Y3 row A, Y4–Y7
// row B) cover the FMA latency on both ports, Y8/Y9 hold the two query
// steps, Y10–Y13 the block steps, Y14 the unfused product. Six loads feed
// eight multiply-adds, so the loop runs at the multiply-add rate. Blocks
// left over go one at a time, still two query rows per load. Each step of
// the four-block loop prefetches 128 bytes of the next four blocks (64·dim
// bytes in dim/2 steps), as the exact kernel does and for the same reason;
// after the first pair of a chunk they are L1 hits.

	MOVQ CX, R9
	SHLQ $4, R9            // bytes per block, and per expanded query row
	LEAQ (R9)(R9*2), R10   // three of them
	MOVQ CX, R14
	SHRQ $1, R14           // 32-byte steps per block
	MOVQ R14, DX
	SHLQ $5, DX            // bytes they cover
	VBROADCASTSS cut+40(FP), Y15

pair:
	MOVQ data+24(FP), R11  // block cursor
	MOVQ nblk+32(FP), R12  // blocks left
	MOVQ R8, DI            // mask cursor
	CMPQ R12, $4
	JLT  one

four:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (R11)(R9*4), R13 // the next four blocks
	MOVQ   R14, BX
	TESTQ  BX, BX
	JZ     fourSum

fourStep:
	VMOVUPS    (AX), Y8
	VMOVUPS    (AX)(R9*1), Y9
	VMOVUPS    (R11), Y10
	MACS(Y10, Y8, Y0, Y14)
	MACS(Y10, Y9, Y4, Y10)
	VMOVUPS    (R11)(R9*1), Y11
	MACS(Y11, Y8, Y1, Y14)
	MACS(Y11, Y9, Y5, Y11)
	VMOVUPS    (R11)(R9*2), Y12
	MACS(Y12, Y8, Y2, Y14)
	MACS(Y12, Y9, Y6, Y12)
	VMOVUPS    (R11)(R10*1), Y13
	MACS(Y13, Y8, Y3, Y14)
	MACS(Y13, Y9, Y7, Y13)
	ADDQ       $32, AX
	ADDQ       $32, R11
	PREFETCHT0 (R13)
	PREFETCHT0 64(R13)
	ADDQ       $128, R13
	DECQ       BX
	JNZ        fourStep

fourSum:
	VEXTRACTF128 $1, Y0, X10
	VADDPS       X10, X0, X0
	VEXTRACTF128 $1, Y1, X11
	VADDPS       X11, X1, X1
	VEXTRACTF128 $1, Y2, X12
	VADDPS       X12, X2, X2
	VEXTRACTF128 $1, Y3, X13
	VADDPS       X13, X3, X3
	VEXTRACTF128 $1, Y4, X10
	VADDPS       X10, X4, X4
	VEXTRACTF128 $1, Y5, X11
	VADDPS       X11, X5, X5
	VEXTRACTF128 $1, Y6, X12
	VADDPS       X12, X6, X6
	VEXTRACTF128 $1, Y7, X13
	VADDPS       X13, X7, X7
	TESTQ        $1, CX
	JZ           fourMask
	VMOVUPS      (AX), X8
	VMOVUPS      (AX)(R9*1), X9
	VMOVUPS      (R11), X10
	MACS(X10, X8, X0, X14)
	MACS(X10, X9, X4, X10)
	VMOVUPS      (R11)(R9*1), X11
	MACS(X11, X8, X1, X14)
	MACS(X11, X9, X5, X11)
	VMOVUPS      (R11)(R9*2), X12
	MACS(X12, X8, X2, X14)
	MACS(X12, X9, X6, X12)
	VMOVUPS      (R11)(R10*1), X13
	MACS(X13, X8, X3, X14)
	MACS(X13, X9, X7, X13)

fourMask:
	VCMPPS    $5, X15, X0, X0
	VCMPPS    $5, X15, X1, X1
	VCMPPS    $5, X15, X2, X2
	VCMPPS    $5, X15, X3, X3
	VCMPPS    $5, X15, X4, X4
	VCMPPS    $5, X15, X5, X5
	VCMPPS    $5, X15, X6, X6
	VCMPPS    $5, X15, X7, X7
	VMOVMSKPS X0, BX
	MOVB      BX, (DI)
	VMOVMSKPS X1, BX
	MOVB      BX, 1(DI)
	VMOVMSKPS X2, BX
	MOVB      BX, 2(DI)
	VMOVMSKPS X3, BX
	MOVB      BX, 3(DI)
	VMOVMSKPS X4, BX
	MOVB      BX, maskRow(DI)
	VMOVMSKPS X5, BX
	MOVB      BX, maskRow+1(DI)
	VMOVMSKPS X6, BX
	MOVB      BX, maskRow+2(DI)
	VMOVMSKPS X7, BX
	MOVB      BX, maskRow+3(DI)
	ADDQ      $4, DI
	SUBQ      DX, AX
	SUBQ      DX, R11
	LEAQ      (R11)(R9*4), R11
	SUBQ      $4, R12
	CMPQ      R12, $4
	JGE       four
	TESTQ     R12, R12
	JZ        next

one:
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ   R14, BX
	TESTQ  BX, BX
	JZ     oneSum

oneStep:
	VMOVUPS (AX), Y8
	VMOVUPS (AX)(R9*1), Y9
	VMOVUPS (R11), Y10
	MACS(Y10, Y8, Y0, Y14)
	MACS(Y10, Y9, Y4, Y10)
	ADDQ    $32, AX
	ADDQ    $32, R11
	DECQ    BX
	JNZ     oneStep

oneSum:
	VEXTRACTF128 $1, Y0, X10
	VADDPS       X10, X0, X0
	VEXTRACTF128 $1, Y4, X11
	VADDPS       X11, X4, X4
	TESTQ        $1, CX
	JZ           oneMask
	VMOVUPS      (AX), X8
	VMOVUPS      (AX)(R9*1), X9
	VMOVUPS      (R11), X10
	MACS(X10, X8, X0, X14)
	MACS(X10, X9, X4, X10)

oneMask:
	VCMPPS    $5, X15, X0, X0
	VCMPPS    $5, X15, X4, X4
	VMOVMSKPS X0, BX
	MOVB      BX, (DI)
	VMOVMSKPS X4, BX
	MOVB      BX, maskRow(DI)
	INCQ      DI
	SUBQ      DX, AX
	SUBQ      DX, R11
	ADDQ      R9, R11
	DECQ      R12
	JNZ       one

next:
	LEAQ (AX)(R9*2), AX
	ADDQ $2*maskRow, R8
	DECQ SI
	JNZ  pair
	VZEROUPPER
	RET
