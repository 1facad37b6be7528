package index

import "math"

// The walk's bound filter (DESIGN.md §2): before a tuple's postings are
// walked, those of sets whose stream-wide bound is below θlb are dropped,
// and the sets dropped for the first time are listed so the walk can settle
// them. PartitionPostings runs it sixteen postings at a time: the AVX-512F
// kernel (bound_amd64.s) where the CPU has one, PartitionPostingsGo
// everywhere else.

// PartitionPostingsGo is the bound filter in portable Go, and the reference
// the kernel is tested against. It copies to ks/kp, in order, the postings
// of sids/poss whose set's bound is at least below, and to fs, in order,
// the sets of the others whose bound is in [0, below) — a negative bound
// marks a set already settled — and returns how many of each it wrote. ks,
// kp and fs hold len(sids) elements. Every store is unconditional and the
// counts move by conditional moves, so the loop has no branch that depends
// on the data.
func PartitionPostingsGo(sids, poss []int32, bound []float64, below float64, ks, kp, fs []int32) (n, f int) {
	poss, ks, kp, fs = poss[:len(sids)], ks[:len(sids)], kp[:len(sids)], fs[:len(sids)]
	fresh := math.Float64bits(below) // a bound in [0, below) has smaller bits
	for i, sid := range sids {
		b := bound[sid]
		ks[n], kp[n], fs[f] = sid, poss[i], sid
		if b >= below {
			n++
		}
		if math.Float64bits(b) < fresh {
			f++
		}
	}
	return n, f
}
