//go:build !amd64

package index

// dotBlocks computes the raw dots of the nq query rows in q against the
// len(out)/(4·nq) blocks data starts with, row after row in out.
func dotBlocks(q []float64, nq int, data []float32, out []float64) { dotBlocksGo(q, nq, data, out) }
