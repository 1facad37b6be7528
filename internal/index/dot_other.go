//go:build !amd64

package index

// dotBlocks computes the raw dots of the len(out)/4 blocks data starts with
// against q.
func dotBlocks(q []float64, data []float32, out []float64) { dotBlocksGo(q, data, out) }
