package pqueue

// TopK maintains the k largest items by score with O(log k) updates and O(1)
// access to the smallest retained score (the list "bottom", which Koios uses
// as θlb and θub). Items are identified by an integer key so that a later
// update with a higher score replaces the earlier entry instead of occupying
// a second slot.
//
// TopK is the concrete realization of the paper's running top-k lists Llb
// and Lub (§IV, §VI). It is not safe for concurrent use; the partitioned
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

// K returns the capacity of the list.
func (t *TopK) K() int { return t.k }

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

// Remove deletes key from the list if present, returning true on success.
// Post-processing uses this when a verified set's exact score drops it out
// of Lub.
func (t *TopK) Remove(key int) bool {
	i, ok := t.index[key]
	if !ok {
		return false
	}
	last := len(t.heap) - 1
	delete(t.index, key)
	if i != last {
		t.heap[i] = t.heap[last]
		t.index[t.heap[i].key] = i
	}
	t.heap = t.heap[:last]
	if i < last {
		if !t.down(i) {
			t.up(i)
		}
	}
	return true
}

// Keys returns the retained keys in unspecified order.
func (t *TopK) Keys() []int {
	out := make([]int, 0, len(t.heap))
	for _, e := range t.heap {
		out = append(out, e.key)
	}
	return out
}

// Entries returns (key, score) pairs sorted by descending score. Ties keep
// heap order, which is arbitrary — consistent with the problem definition's
// arbitrary tie-breaking.
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

func (t *TopK) down(i int) bool {
	moved := false
	n := len(t.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		smallest := left
		if right := left + 1; right < n && t.heap[right].score < t.heap[left].score {
			smallest = right
		}
		if t.heap[smallest].score >= t.heap[i].score {
			return moved
		}
		t.swap(i, smallest)
		i = smallest
		moved = true
	}
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.index[t.heap[i].key] = i
	t.index[t.heap[j].key] = j
}
