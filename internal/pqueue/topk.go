package pqueue

// TopK maintains the k largest items by score with O(log k) updates and O(1)
// access to the smallest retained score (the list "bottom", which Koios uses
// as θlb). Items are identified by an integer key so that a later update
// with a higher score replaces the earlier entry instead of occupying a
// second slot.
//
// TopK is the concrete realization of the paper's running top-k list Llb
// (§IV, §VI); post-processing keeps Lub, whose members only leave, in a
// sorted slice of its own. It is not safe for concurrent use; the partitioned
// driver wraps it in a mutex where needed.
type TopK struct {
	k     int
	heap  []topkEntry // min-heap on score
	index map[int]int // key -> heap position
}

type topkEntry struct {
	key   int
	score float64
}

// NewTopK returns an empty top-k list. k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("pqueue: NewTopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]topkEntry, 0, k), index: make(map[int]int, k)}
}

// Reset empties the list and makes k its capacity, keeping its storage, so
// a pooled list serves search after search without allocating. A zero TopK
// is ready for use after a Reset. k must be positive.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("pqueue: TopK.Reset requires k > 0")
	}
	t.k = k
	t.heap = t.heap[:0]
	if t.index == nil {
		t.index = make(map[int]int, k)
	} else {
		clear(t.index)
	}
}

// Len returns the number of items currently retained.
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether the list holds k items.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// Bottom returns the smallest retained score, or 0 when the list is not yet
// full. This matches the paper's convention that θlb (and θub) are only
// meaningful once k candidates exist; before that no set may be pruned.
func (t *TopK) Bottom() float64 {
	if len(t.heap) < t.k {
		return 0
	}
	return t.heap[0].score
}

// Contains reports whether key is currently retained.
func (t *TopK) Contains(key int) bool {
	_, ok := t.index[key]
	return ok
}

// Score returns the retained score for key and whether it is present.
func (t *TopK) Score(key int) (float64, bool) {
	i, ok := t.index[key]
	if !ok {
		return 0, false
	}
	return t.heap[i].score, true
}

// Update offers (key, score) to the list. If key is already retained, its
// score is raised (updates never lower a retained score; the bounds Koios
// tracks only improve). Otherwise the item is inserted, evicting the current
// bottom when the list is full and the new score is strictly greater.
// It returns true when the list changed.
func (t *TopK) Update(key int, score float64) bool {
	// A full list changes only for a score above its bottom, whether or not
	// key is retained (a retained score is at least the bottom): nearly every
	// offer of a search ends here, before the map is read.
	if len(t.heap) == t.k && score <= t.heap[0].score {
		return false
	}
	if i, ok := t.index[key]; ok {
		if score <= t.heap[i].score {
			return false
		}
		t.heap[i].score = score
		t.down(i)
		return true
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, topkEntry{key, score})
		t.index[key] = len(t.heap) - 1
		t.up(len(t.heap) - 1)
		return true
	}
	delete(t.index, t.heap[0].key)
	t.heap[0] = topkEntry{key, score}
	t.index[key] = 0
	t.down(0)
	return true
}

// Entries returns (key, score) pairs sorted by descending score. Ties keep
// heap order, which is arbitrary. Koios's Llb never hands them on: only its
// bottom score feeds θlb, and an answer is ordered by the rule of
// DESIGN.md §1, not by this list.
func (t *TopK) Entries() ([]int, []float64) {
	keys := make([]int, len(t.heap))
	scores := make([]float64, len(t.heap))
	tmp := make([]topkEntry, len(t.heap))
	copy(tmp, t.heap)
	// insertion sort descending; k is small (typically ≤ 50).
	for i := 1; i < len(tmp); i++ {
		e := tmp[i]
		j := i - 1
		for j >= 0 && tmp[j].score < e.score {
			tmp[j+1] = tmp[j]
			j--
		}
		tmp[j+1] = e
	}
	for i, e := range tmp {
		keys[i] = e.key
		scores[i] = e.score
	}
	return keys, scores
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[i].score >= t.heap[parent].score {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && t.heap[right].score < t.heap[left].score {
			smallest = right
		}
		if t.heap[smallest].score >= t.heap[i].score {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.index[t.heap[i].key] = i
	t.index[t.heap[j].key] = j
}
