//go:build !amd64

package index

// dotBlocks computes the raw dots of the query row q against the len(out)/4
// blocks data starts with.
func dotBlocks(q []float64, data []float32, out []float64) { dotBlocksGo(q, data, out) }

// screenBlocks flags, for each of the nq expanded query rows in xq, the
// blocks among the first nblk at data that may hold a row scoring cut or
// more.
func screenBlocks(xq []float32, nq, dim int, data []float32, nblk int, cut float32, mask []byte) {
	screenBlocksGo(xq, nq, dim, data, nblk, cut, mask)
}
