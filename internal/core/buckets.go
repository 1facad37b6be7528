package core

// iubBuckets is the refinement-local realization of the paper's bucketized
// iUB filter (§V), specialized to the dense candidate layout: candidates are
// identified by their partition-local index, buckets are a flat slice
// indexed by m (open matching slots) instead of a map, and each bucket is a
// score-ascending min-heap of candidate indices stored in a plain slice.
//
// A candidate is filed on demand, not on every change of its bound: it stays
// under the (m, score) it was last filed with while refinement advances its
// candState. The stream is descending, so every similarity added to ubSum
// since the filing is at least the current level s, and the filed bound
// score + m·s can only under-state the true ubSum + mRem·s. prune therefore
// pops whatever the filed bound puts below the threshold, decides on the true
// bound, and files the survivors again where they now belong. A live
// candidate is in exactly one heap, and entries leave only from the top.
type iubBuckets struct {
	heaps [][]int32 // bucket per m; min-heap on score
	// score holds, per local candidate, the ubSum it was filed with. It is
	// the search's pooled memory and carries garbage for candidates not in
	// any bucket.
	score []float64
	// refile collects, during one bucket's scan, the survivors it popped.
	refile []int32
}

// newIUBBuckets sizes the filter for candidates with at most maxM open
// slots; score has one element per partition-local candidate and needs no
// initial value.
func newIUBBuckets(maxM int, score []float64) iubBuckets {
	return iubBuckets{heaps: make([][]int32, maxM+1), score: score}
}

// insert files a candidate under m open slots and the given score.
func (b *iubBuckets) insert(local int32, m int, score float64) {
	b.score[local] = score
	h := append(b.heaps[m], local)
	b.heaps[m] = h
	b.up(h, len(h)-1)
}

// prune removes every candidate whose upper bound ubSum + mRem·s, read from
// states, falls strictly below theta, invoking onPrune for each. A bucket's
// scan pops while the filed bound is below theta+pruneEps: the filed bound
// under-states the true one up to the rounding of the at most m+4 float
// operations that separate them, each off by less than 2⁻⁵³·m, which the
// slack covers while m = min(|Q|,|C|) stays below about 3,000 (DESIGN.md
// §3). Every popped candidate is tested with the true bound — the decision
// is the one an always-current filter would take — and the survivors are
// filed again once the scan is over, so none is popped twice.
func (b *iubBuckets) prune(s, theta float64, states []candState, onPrune func(local int32)) {
	for m := range b.heaps {
		for {
			h := b.heaps[m]
			if len(h) == 0 || b.score[h[0]]+float64(m)*s >= theta+pruneEps {
				break // survivors only from here on
			}
			local := h[0]
			b.pop(m)
			if st := &states[local]; st.ubSum+float64(st.mRem)*s < theta {
				onPrune(local)
			} else {
				b.refile = append(b.refile, local)
			}
		}
		for _, local := range b.refile {
			st := &states[local]
			b.insert(local, int(st.mRem), st.ubSum)
		}
		b.refile = b.refile[:0]
	}
}

// footprintBytes is the filter's memory: the per-candidate scores and the
// heaps' backing arrays.
func (b *iubBuckets) footprintBytes() int64 {
	n := int64(len(b.score))*8 + int64(len(b.heaps))*24 + int64(cap(b.refile))*4
	for _, h := range b.heaps {
		n += int64(cap(h)) * 4
	}
	return n
}

// pop takes the top candidate out of bucket m: the bucket's last candidate
// fills the hole and sifts to its place.
func (b *iubBuckets) pop(m int) {
	h := b.heaps[m]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	b.heaps[m] = h
	if n > 1 {
		b.down(h, 0)
	}
}

// up sifts the candidate at index i of h toward the root.
func (b *iubBuckets) up(h []int32, i int) {
	c := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if b.score[h[parent]] <= b.score[c] {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = c
}

// down sifts the candidate at index i of h toward the leaves.
func (b *iubBuckets) down(h []int32, i int) {
	c := h[i]
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if right := least + 1; right < len(h) && b.score[h[right]] < b.score[h[least]] {
			least = right
		}
		if b.score[c] <= b.score[h[least]] {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = c
}
