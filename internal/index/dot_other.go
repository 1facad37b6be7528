//go:build !amd64

package index

// dotBlocks computes the raw dots of the query row q — element j at q[4j],
// the row's lane in the arena — against the len(out)/4 blocks data starts
// with.
func dotBlocks(q []float32, dim int, data []float32, out []float64) { dotBlocksGo(q, dim, data, out) }

// screenBlocks writes s.mask for the first nq query rows of s against the
// first nblk 16-row blocks at data.
func screenBlocks(s *scanScratch, nq, groups int, data []byte, nblk int) {
	screenBlocksGo(s.q8, nq, groups, data, nblk, s.thr, s.mask)
}

// classMasks writes the class test's mask bytes for sk.
func classMasks(sk []uint64, q uint64, cut int32, mask []byte) { classMasksGo(sk, q, cut, mask) }

// PartitionPostings is PartitionPostingsGo.
func PartitionPostings(sids, poss []int32, bound []float64, below float64, ks, kp, fs []int32) (n, f int) {
	return PartitionPostingsGo(sids, poss, bound, below, ks, kp, fs)
}
