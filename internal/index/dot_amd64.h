// The body of dotBlocksAVX and dotBlocksFMA (dot_amd64.s defines MAC and
// loads the arguments): AX = q, CX = dim ≥ 1, BX = data, DX = nblk ≥ 1,
// R8 = out. q is the query row's lane in the arena: element j is the
// float32 at 16j, widened to float64 in all four lanes of Y8 by
// VBROADCASTSS and VCVTPS2PD — exactly, so the products are the scalar
// loop's.
//
// Eight blocks per outer iteration — eight independent accumulators keep
// both FP ports busy across the add latency and share each q[j] widening —
// then one block at a time. The scan hands it runs of blocks the screen
// flagged (screen.go), so the eight-block loop is what a scan with
// every block flagged runs on.
//
// Each step of the eight-block loop also prefetches the cache lines of the
// blocks the next outer iteration reads (16·dim bytes per block: 128 bytes
// a step). The short per-block streams are a pattern the hardware
// prefetcher does not follow, and without this the kernel runs at half
// speed whenever the arena comes from L3 instead of L2. A prefetch past the
// end of the arena is dropped, never a fault.
//
// Pointers are not reloaded between outer iterations: a j loop leaves AX
// one block further (R9 bytes: the query row's lane spans a block, and is
// subtracted again) and BX one block further, so the next group of eight
// blocks starts 7·R9 after it.
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
	LEAQ   (BX)(R9*4), R11 // element j of blocks 4-7
	LEAQ   (BX)(R9*8), DI  // the next eight blocks
	MOVQ   CX, R12

eightElem:
	VBROADCASTSS (AX), X8
	VCVTPS2PD    X8, Y8
	VCVTPS2PD    (BX), Y9
	MAC(Y9, Y8, Y0, Y9)
	VCVTPS2PD    (BX)(R9*1), Y10
	MAC(Y10, Y8, Y1, Y10)
	VCVTPS2PD    (BX)(R9*2), Y11
	MAC(Y11, Y8, Y2, Y11)
	VCVTPS2PD    (BX)(R10*1), Y12
	MAC(Y12, Y8, Y3, Y12)
	VCVTPS2PD    (R11), Y13
	MAC(Y13, Y8, Y4, Y13)
	VCVTPS2PD    (R11)(R9*1), Y14
	MAC(Y14, Y8, Y5, Y14)
	VCVTPS2PD    (R11)(R9*2), Y15
	MAC(Y15, Y8, Y6, Y15)
	VCVTPS2PD    (R11)(R10*1), Y9
	MAC(Y9, Y8, Y7, Y9)
	ADDQ         $16, AX
	ADDQ         $16, BX
	ADDQ         $16, R11
	PREFETCHT0   (DI)
	PREFETCHT0   64(DI)
	ADDQ         $128, DI
	DECQ         R12
	JNZ          eightElem

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 128(R8)
	VMOVUPD Y5, 160(R8)
	VMOVUPD Y6, 192(R8)
	VMOVUPD Y7, 224(R8)
	ADDQ    $256, R8
	SUBQ    R9, AX
	LEAQ    (BX)(R10*2), BX
	ADDQ    R9, BX
	SUBQ    $8, DX
	CMPQ    DX, $8
	JGE     eight
	TESTQ   DX, DX
	JZ      done

single:
	VXORPD Y0, Y0, Y0
	MOVQ   CX, R12

singleElem:
	VBROADCASTSS (AX), X8
	VCVTPS2PD    X8, Y8
	VCVTPS2PD    (BX), Y9
	MAC(Y9, Y8, Y0, Y9)
	ADDQ         $16, AX
	ADDQ         $16, BX
	DECQ         R12
	JNZ          singleElem

	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	SUBQ    R9, AX
	DECQ    DX
	JNZ     single

done:
	VZEROUPPER
	RET
