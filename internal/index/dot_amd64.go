package index

func init() { useAVX, useFMA = cpuFeatures() }

// cpuFeatures reports whether the CPU has AVX and the OS saves the YMM
// state, and whether it has FMA as well.
func cpuFeatures() (avx, fma bool)

// dotBlocksAVX is dotBlocksGo for dim ≥ 1 widened float32 components at q
// and nblk ≥ 1 blocks at data: one arena row per vector lane, products and
// sums rounded as the scalar loop rounds them (dot_amd64.s). It reads
// 4·dim·nblk floats at data and writes 4·nblk dots at out.
//
//go:noescape
func dotBlocksAVX(q *float64, dim int, data *float32, nblk int, out *float64)

// dotBlocksFMA is dotBlocksAVX with multiply and add fused; the same bits,
// because q's components are widened float32 values.
//
//go:noescape
func dotBlocksFMA(q *float64, dim int, data *float32, nblk int, out *float64)

// screenBlocksAVX is screenBlocksGo for 2·npair ≥ 2 expanded query rows at
// q, dim ≥ 1 and nblk ≥ 1 blocks at data: eight float32 lanes, two
// elements of a block's four rows, per instruction (dot_amd64.s). It reads
// 8·dim·npair floats at q and 4·dim·nblk at data, and writes nblk bytes at
// mask+g·scanChunk for each of the 2·npair rows g.
//
//go:noescape
func screenBlocksAVX(q *float32, npair, dim int, data *float32, nblk int, cut float32, mask *byte)

// screenBlocksFMA is screenBlocksAVX with multiply and add fused: other
// sums, inside the same bound.
//
//go:noescape
func screenBlocksFMA(q *float32, npair, dim int, data *float32, nblk int, cut float32, mask *byte)

// dotBlocks computes the raw dots of the query row q against the len(out)/4
// blocks data starts with: an assembly kernel when the CPU has AVX and the
// shape is one the kernels take (their loops count down from dim and nblk),
// dotBlocksGo otherwise.
func dotBlocks(q []float64, data []float32, out []float64) {
	dim, nblk := len(q), len(out)/4
	if !useAVX || dim == 0 || nblk == 0 {
		dotBlocksGo(q, data, out)
		return
	}
	_ = data[4*dim*nblk-1] // the kernels read this far, unchecked
	if useFMA {
		dotBlocksFMA(&q[0], dim, &data[0], nblk, &out[0])
	} else {
		dotBlocksAVX(&q[0], dim, &data[0], nblk, &out[0])
	}
}

// screenBlocks flags, for each of the nq expanded query rows in xq, the
// blocks among the first nblk at data that may hold a row scoring cut or
// more: the same choice of kernel as dotBlocks. The kernels take the rows in
// pairs, so xq and mask hold nq+nq&1 rows, the odd one out beside a zero row.
func screenBlocks(xq []float32, nq, dim int, data []float32, nblk int, cut float32, mask []byte) {
	if !useAVX || dim == 0 || nblk == 0 || nq == 0 {
		screenBlocksGo(xq, nq, dim, data, nblk, cut, mask)
		return
	}
	npair := (nq + 1) / 2
	// The kernels read and write this far, unchecked.
	_, _, _ = xq[8*dim*npair-1], data[4*dim*nblk-1], mask[(2*npair-1)*scanChunk+nblk-1]
	if useFMA {
		screenBlocksFMA(&xq[0], npair, dim, &data[0], nblk, cut, &mask[0])
	} else {
		screenBlocksAVX(&xq[0], npair, dim, &data[0], nblk, cut, &mask[0])
	}
}
