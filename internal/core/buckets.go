package core

// iubBuckets is the refinement-local realization of the paper's bucketized
// iUB filter (§V), specialized to the dense candidate layout: candidates are
// identified by their set ID, buckets are a flat slice indexed by m (open
// matching slots) instead of a map, and each bucket is a score-ascending
// min-heap of set IDs stored in a plain slice.
//
// A candidate is filed on demand, not on every change of its bound: file
// puts it under m = min(mRem, rRem) and score = min(ubSum, rowSum), and it
// stays there while refinement advances its candState. The stream is
// descending, so every similarity added to either sum since the filing is at
// least the current level s, and the filed bound score + m·s can only
// under-state each side of the true bound min(ubSum + mRem·s,
// rowSum + rRem·s). prune therefore pops whatever the filed bound puts below
// the threshold, decides on the true bound, and files the survivors again
// where they now belong. A live candidate is in exactly one heap, and
// entries leave only from the top.
//
// The heaps are a partition refiner's pooled memory (refinerScratch): reset
// empties them for the next search and keeps their arrays.
type iubBuckets struct {
	heaps [][]int32 // bucket per m; min-heap on score
	// score holds, per set ID, the score the set was filed with. It is the
	// search's pooled memory, shared with the engine's other partitions, and
	// carries garbage for sets not in any bucket.
	score []float64
	// refile collects, during one bucket's scan, the survivors it popped.
	refile []int32
	// held counts the entries the heaps hold and peak the most they held at
	// once this search — what footprintBytes reports, whatever capacity
	// earlier searches left in the pooled heaps.
	held, peak int
}

// newIUBBuckets returns a filter for candidates with at most maxM open
// slots; score has one element per set of the engine and needs no initial
// value.
func newIUBBuckets(maxM int, score []float64) iubBuckets {
	var b iubBuckets
	b.reset(maxM, score)
	return b
}

// reset readies the filter for a search with at most maxM open slots per
// candidate, filing scores in score, on the heaps of the searches before.
func (b *iubBuckets) reset(maxM int, score []float64) {
	b.heaps = regrown(b.heaps, maxM+1)
	for m := range b.heaps {
		b.heaps[m] = b.heaps[m][:0]
	}
	b.score, b.held, b.peak = score, 0, 0
}

// file puts a candidate under the smaller side of each of its counts: m =
// min(mRem, rRem) open slots and score = min(ubSum, rowSum).
func (b *iubBuckets) file(sid int32, st *candState) {
	b.score[sid] = min(st.ubSum, st.rowSum)
	m := min(st.mRem, st.rRem)
	h := append(b.heaps[m], sid)
	b.heaps[m] = h
	b.up(h, len(h)-1)
	b.held++
	b.peak = max(b.peak, b.held)
}

// prune removes every candidate whose upper bound min(ubSum + mRem·s,
// rowSum + rRem·s), read from states, falls strictly below theta, invoking
// onPrune for each with whether the column side alone would have kept it. A
// bucket's scan pops while the filed bound is below theta+pruneEps: the
// filed bound under-states each side up to the rounding of the at most m+4
// float operations that separate them, each off by less than 2⁻⁵³·m, which
// the slack covers while m = min(|Q|,|C|) stays below about 3,000
// (DESIGN.md §3). Every popped candidate is tested with the true bound — the
// decision is the one an always-current filter would take — and the
// survivors are filed again once the scan is over, so none is popped twice.
// A popped candidate whose status in flags is no longer setLive was settled
// by the stream-wide bound, and counted then.
func (b *iubBuckets) prune(s, theta float64, states []candState, flags []uint8, onPrune func(sid int32, byQuery bool)) {
	for m := range b.heaps {
		for {
			h := b.heaps[m]
			if len(h) == 0 || b.score[h[0]]+float64(m)*s >= theta+pruneEps {
				break // survivors only from here on
			}
			sid := h[0]
			b.pop(m)
			if flags[sid] != setLive {
				continue
			}
			if iub, col := states[sid].bound(s); iub < theta {
				onPrune(sid, col >= theta)
			} else {
				b.refile = append(b.refile, sid)
			}
		}
		for _, sid := range b.refile {
			b.file(sid, &states[sid])
		}
		b.refile = b.refile[:0]
	}
}

// footprintBytes is the memory of the filter's heaps as this search used
// them: a slice header per bucket and the most entries they held at once.
// The filed scores are the arena's, which the refiner counts.
func (b *iubBuckets) footprintBytes() int64 {
	return int64(len(b.heaps))*24 + int64(b.peak)*4
}

// pop takes the top candidate out of bucket m: the bucket's last candidate
// fills the hole and sifts to its place.
func (b *iubBuckets) pop(m int) {
	h := b.heaps[m]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	b.heaps[m] = h
	b.held--
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
