package index

import "math/bits"

// The sketch test of one class (DESIGN.md §12): inside a class the cut is a
// constant, so testing a sketch s against the query sketch q is
// popcount((s⊕q)>>8) ≤ cut, with no table to read. classMasks runs it
// eight sketches to a mask byte: the AVX-512 VPOPCNTDQ kernel
// (classscan_amd64.s) where the CPU has one, classMasksGo everywhere else.

// classMasksGo is the class test in portable Go, and the reference the
// kernel is tested against: bit i%8 of mask[i/8] is set iff
// popcount((sk[i]⊕q)>>8) ≤ cut, for the ⌈len(sk)/8⌉ bytes it writes; the
// bits of the last byte past len(sk) are clear. A negative cut sets none.
func classMasksGo(sk []uint64, q uint64, cut int32, mask []byte) {
	for i := 0; i < len(sk); i += 8 {
		var m byte
		for j, s := range sk[i:min(i+8, len(sk))] {
			if bits.OnesCount64((s^q)>>8) <= int(cut) {
				m |= 1 << j
			}
		}
		mask[i/8] = m
	}
}
