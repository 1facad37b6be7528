package index

func init() { useAVX, useFMA = cpuFeatures() }

// cpuFeatures reports whether the CPU has AVX and the OS saves the YMM
// state, and whether it has FMA as well.
func cpuFeatures() (avx, fma bool)

// dotBlocksAVX is dotBlocksGo for nq ∈ {1, 2} rows of dim ≥ 1 widened
// float32 components at q and nblk ≥ 1 blocks at data: one arena row per
// vector lane, products and sums rounded as the scalar loop rounds them
// (dot_amd64.s). It reads 4·dim·nblk floats at data and writes 4·nblk dots
// per query row at out.
//
//go:noescape
func dotBlocksAVX(q *float64, nq, dim int, data *float32, nblk int, out *float64)

// dotBlocksFMA is dotBlocksAVX with multiply and add fused; the same bits,
// because q's components are widened float32 values.
//
//go:noescape
func dotBlocksFMA(q *float64, nq, dim int, data *float32, nblk int, out *float64)

// dotBlocks computes the raw dots of the nq query rows in q against the
// len(out)/(4·nq) blocks data starts with, row after row in out: an assembly
// kernel when the CPU has AVX and the shape is one the kernels take (their
// loops count down from dim and nblk), dotBlocksGo otherwise.
func dotBlocks(q []float64, nq int, data []float32, out []float64) {
	dim, nblk := len(q)/nq, len(out)/(4*nq)
	if !useAVX || dim == 0 || nblk == 0 {
		dotBlocksGo(q, nq, data, out)
		return
	}
	_ = data[4*dim*nblk-1] // the kernels read this far, unchecked
	if useFMA {
		dotBlocksFMA(&q[0], nq, dim, &data[0], nblk, &out[0])
	} else {
		dotBlocksAVX(&q[0], nq, dim, &data[0], nblk, &out[0])
	}
}
