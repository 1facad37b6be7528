package core

// iubBuckets is the refinement-local realization of the paper's bucketized
// iUB filter (§V), specialized to the dense candidate layout: candidates are
// identified by their partition-local index, buckets are a flat slice
// indexed by m (open matching slots) instead of a map, and each bucket is a
// score-ascending min-heap of candidate indices stored in a plain slice.
// The heaps are position indexed — pos records where each live candidate
// sits in its bucket — so a move takes the candidate out of its old bucket
// instead of leaving a stale entry behind: a live candidate is in exactly
// one heap, and all heaps together never hold more entries than the
// partition has candidates.
type iubBuckets struct {
	heaps [][]int32 // bucket per m; min-heap on score
	// pos and score hold, per local candidate, its index in its bucket and
	// its current score. Both are the search's pooled memory and carry
	// garbage for candidates not in any bucket.
	pos   []int32
	score []float64
}

// newIUBBuckets sizes the filter for candidates with at most maxM open
// slots; pos and score have one element per partition-local candidate and
// need no initial value.
func newIUBBuckets(maxM int, pos []int32, score []float64) iubBuckets {
	return iubBuckets{heaps: make([][]int32, maxM+1), pos: pos, score: score}
}

// insert adds a new candidate with m open slots and an initial score.
func (b *iubBuckets) insert(local int32, m int, score float64) {
	b.score[local] = score
	h := append(b.heaps[m], local)
	b.heaps[m] = h
	b.up(h, len(h)-1)
}

// move relocates a live candidate from bucket from to bucket m with an
// updated score.
func (b *iubBuckets) move(local int32, from, m int, score float64) {
	b.remove(from, int(b.pos[local]))
	b.insert(local, m, score)
}

// prune scans every bucket and removes candidates whose upper bound
// score + m·s falls strictly below theta, invoking onPrune for each.
// Because entries are score-ordered, the scan of a bucket stops at the
// first survivor.
func (b *iubBuckets) prune(s, theta float64, onPrune func(local int32)) {
	for m := range b.heaps {
		for {
			h := b.heaps[m]
			if len(h) == 0 || b.score[h[0]]+float64(m)*s >= theta {
				break // survivors only from here on
			}
			local := h[0]
			b.remove(m, 0)
			onPrune(local)
		}
	}
}

// footprintBytes is the filter's memory: the two per-candidate arrays and
// the heaps' backing arrays.
func (b *iubBuckets) footprintBytes() int64 {
	n := int64(len(b.pos))*(4+8) + int64(len(b.heaps))*24
	for _, h := range b.heaps {
		n += int64(cap(h)) * 4
	}
	return n
}

// remove takes the candidate at index i out of bucket m: the bucket's last
// candidate fills the hole and sifts to its place.
func (b *iubBuckets) remove(m, i int) {
	h := b.heaps[m]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	b.heaps[m] = h
	if i == n {
		return
	}
	h[i] = last
	if i > 0 && b.score[h[(i-1)/2]] > b.score[last] {
		b.up(h, i)
	} else {
		b.down(h, i)
	}
}

// up sifts the candidate at index i of h toward the root and records where
// it lands.
func (b *iubBuckets) up(h []int32, i int) {
	c := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if b.score[h[parent]] <= b.score[c] {
			break
		}
		h[i] = h[parent]
		b.pos[h[i]] = int32(i)
		i = parent
	}
	h[i] = c
	b.pos[c] = int32(i)
}

// down sifts the candidate at index i of h toward the leaves and records
// where it lands.
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
		b.pos[h[i]] = int32(i)
		i = least
	}
	h[i] = c
	b.pos[c] = int32(i)
}
