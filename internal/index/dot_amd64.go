package index

func init() { useAVX = hasAVX() }

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state.
func hasAVX() bool

// dotBlocksAVX is dotBlocksGo for nblk ≥ 1 blocks of dim ≥ 1 elements: one
// row per vector lane, products and sums rounded as the scalar loop rounds
// them (dot_amd64.s). It reads 4·dim·nblk floats at data and writes 4·nblk
// dots at out.
//
//go:noescape
func dotBlocksAVX(q *float64, dim int, data *float32, nblk int, out *float64)

// dotBlocks computes the raw dots of the len(out)/4 blocks data starts with
// against q: the AVX kernel when the CPU has it and the shape is one the
// kernel takes (its loops count down from dim and nblk), dotBlocksGo
// otherwise.
func dotBlocks(q []float64, data []float32, out []float64) {
	nblk := len(out) / 4
	if !useAVX || len(q) == 0 || nblk == 0 {
		dotBlocksGo(q, data, out)
		return
	}
	_ = data[4*len(q)*nblk-1] // the kernel reads this far, unchecked
	dotBlocksAVX(&q[0], len(q), &data[0], nblk, &out[0])
}
