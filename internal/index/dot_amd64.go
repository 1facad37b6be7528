package index

import (
	"math"
	"unsafe"
)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<27) == 0 { // OSXSAVE: XGETBV is there to ask which state the OS saves
		return
	}
	xcr0 := xgetbv()
	useAVX = c1&(1<<28) != 0 && xcr0&6 == 6 // AVX, and the OS saves XMM and YMM
	useFMA = useAVX && c1&(1<<12) != 0
	if maxLeaf < 7 {
		return
	}
	_, b7, c7, _ := cpuid(7, 0)
	useAVX2 = useAVX && b7&(1<<5) != 0 && b7&(1<<8) != 0 // AVX2 and BMI2 (PDEP)
	// AVX-512F and AVX512_VNNI, and the OS saves the opmask and ZMM state.
	useVNNI = useAVX2 && b7&(1<<16) != 0 && c7&(1<<11) != 0 && xcr0&0xe0 == 0xe0
	// AVX-512F and AVX512_VPOPCNTDQ, the same OS state.
	useVPOPCNT = useAVX && b7&(1<<16) != 0 && c7&(1<<14) != 0 && xcr0&0xe0 == 0xe0
	// AVX-512F and POPCNT, the same OS state.
	useAVX512F = useAVX && b7&(1<<16) != 0 && c1&(1<<23) != 0 && xcr0&0xe0 == 0xe0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0: the register state the OS saves.
func xgetbv() uint32

// dotBlocksAVX is dotBlocksGo for dim ≥ 1 elements of the query row at q,
// one every four floats, and nblk ≥ 1 blocks at data: one arena row per
// vector lane, products and sums rounded as the scalar loop rounds them
// (dot_amd64.s). It reads 4·dim·nblk floats at data and writes 4·nblk dots
// at out.
//
//go:noescape
func dotBlocksAVX(q *float32, dim int, data *float32, nblk int, out *float64)

// dotBlocksFMA is dotBlocksAVX with multiply and add fused; the same bits,
// because both factors are widened float32 values.
//
//go:noescape
func dotBlocksFMA(q *float32, dim int, data *float32, nblk int, out *float64)

// screenBlocksVNNI is screenBlocksGo for nquad ≥ 1 quads of query rows,
// groups ≥ 1 and nblk ≥ 1 16-row blocks: one VPDPBUSD adds four products
// to each of sixteen rows (screen_amd64.s). It reads 16·groups·nquad bytes
// at q, 64·groups·nblk at data and 4·nquad thresholds, and writes 4·nblk
// bytes at mask+g·scanChunk for each of the 4·nquad rows g.
//
//go:noescape
func screenBlocksVNNI(q *int8, nquad, groups int, data *byte, nblk int, thr *int32, mask *byte)

// screenBlocksAVX2 is screenBlocksVNNI in AVX2 for npair ≥ 1 pairs of
// query rows in pairWords' form: the bytes split into int16 words and
// multiplied in pairs (VPMADDWD); the same sums, so the same masks. It
// reads 16·groups·npair bytes at q and 2·npair thresholds, and writes the
// masks of the 2·npair rows.
//
//go:noescape
func screenBlocksAVX2(q *int16, npair, groups int, data *byte, nblk int, thr *int32, mask *byte)

// classMasksVPOPCNT is classMasksGo for n ≥ 1 sketches at sk, eight to a
// VPOPCNTQ (classscan_amd64.s). It reads n words at sk and writes ⌈n/8⌉
// bytes at mask.
//
//go:noescape
func classMasksVPOPCNT(sk *uint64, n int, q uint64, cut int64, mask *byte)

// partitionPostingsAVX512 is PartitionPostingsGo for m ≥ 1 postings at
// sids and poss and the nb bounds at bound, sixteen postings to a ZMM
// (bound_amd64.s), up to the first block holding a set ID outside [0, nb):
// done is the postings it filtered, n and f the entries it wrote. It reads
// m set IDs and positions and writes at most m entries at ks, kp and fs.
//
//go:noescape
func partitionPostingsAVX512(sids, poss *int32, m int, bound *float64, nb int, below float64, ks, kp, fs *int32) (done, n, f int)

// dotBlocks computes the raw dots of the query row q — element j at q[4j],
// the row's lane in the arena — against the len(out)/4 blocks data starts
// with: an assembly kernel when the CPU has AVX and the shape is one the
// kernels take (their loops count down from dim and nblk), dotBlocksGo
// otherwise.
func dotBlocks(q []float32, dim int, data []float32, out []float64) {
	nblk := len(out) / 4
	if !useAVX || dim == 0 || nblk == 0 {
		dotBlocksGo(q, dim, data, out)
		return
	}
	_, _ = data[4*dim*nblk-1], q[4*(dim-1)] // the kernels read this far, unchecked
	if useFMA {
		dotBlocksFMA(&q[0], dim, &data[0], nblk, &out[0])
	} else {
		dotBlocksAVX(&q[0], dim, &data[0], nblk, &out[0])
	}
}

// screenBlocks writes s.mask for the first nq query rows of s against the
// first nblk 16-row blocks at data: the VNNI kernel, else the AVX2 one,
// else — and for the shapes the kernels' count-down loops cannot take —
// screenBlocksGo. The kernels take the rows four or two at a time and may
// write the masks of the zero rows that fill the last quad or pair.
func screenBlocks(s *scanScratch, nq, groups int, data []byte, nblk int) {
	if !useAVX2 || nq == 0 || groups == 0 || nblk == 0 {
		screenBlocksGo(s.q8, nq, groups, data, nblk, s.thr, s.mask)
		return
	}
	// The kernels read and write this far, unchecked.
	_ = data[64*groups*nblk-1]
	if useVNNI {
		quads := (nq + 3) / 4
		_, _, _ = s.q8[16*groups*quads-1], s.thr[4*quads-1], s.mask[(4*quads-1)*scanChunk+4*nblk-1]
		screenBlocksVNNI(&s.q8[0], quads, groups, &data[0], nblk, &s.thr[0], &s.mask[0])
	} else {
		pairs := (nq + 1) / 2
		_, _, _ = s.q16[8*groups*pairs-1], s.thr[2*pairs-1], s.mask[(2*pairs-1)*scanChunk+4*nblk-1]
		screenBlocksAVX2(&s.q16[0], pairs, groups, &data[0], nblk, &s.thr[0], &s.mask[0])
	}
}

// classMasks writes the class test's mask bytes for sk: the VPOPCNTDQ
// kernel, else classMasksGo.
func classMasks(sk []uint64, q uint64, cut int32, mask []byte) {
	if !useVPOPCNT || len(sk) == 0 {
		classMasksGo(sk, q, cut, mask)
		return
	}
	_ = mask[(len(sk)-1)/8] // the kernel writes this far, unchecked
	classMasksVPOPCNT(&sk[0], len(sk), q, int64(cut), &mask[0])
}

// PartitionPostings runs the bound filter PartitionPostingsGo defines: the
// AVX-512F kernel when the CPU has it; PartitionPostingsGo otherwise, and
// from the first block holding a set ID outside bound on, whose index
// check then panics as it always has.
func PartitionPostings(sids, poss []int32, bound []float64, below float64, ks, kp, fs []int32) (n, f int) {
	m := len(sids)
	if !useAVX512F || m == 0 {
		return PartitionPostingsGo(sids, poss, bound, below, ks, kp, fs)
	}
	_, _, _, _ = poss[m-1], ks[m-1], kp[m-1], fs[m-1] // the kernel reads and writes this far, unchecked
	done, n, f := partitionPostingsAVX512(&sids[0], &poss[0], m, unsafe.SliceData(bound), min(len(bound), math.MaxInt32), below, &ks[0], &kp[0], &fs[0])
	if done < m {
		dn, df := PartitionPostingsGo(sids[done:], poss[done:], bound, below, ks[n:], kp[n:], fs[f:])
		n, f = n+dn, f+df
	}
	return n, f
}
