package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestTopKBasics(t *testing.T) {
	tk := NewTopK(3)
	if tk.Bottom() != 0 {
		t.Fatalf("Bottom on empty = %v, want 0", tk.Bottom())
	}
	tk.Update(1, 0.5)
	tk.Update(2, 0.9)
	if tk.Bottom() != 0 {
		t.Fatalf("Bottom before full = %v, want 0", tk.Bottom())
	}
	tk.Update(3, 0.1)
	if got := tk.Bottom(); got != 0.1 {
		t.Fatalf("Bottom = %v, want 0.1", got)
	}
	// A lower score must not evict anything.
	if tk.Update(4, 0.05) {
		t.Fatal("Update with lower score reported change")
	}
	// A higher score evicts the bottom.
	if !tk.Update(5, 0.7) {
		t.Fatal("Update with higher score reported no change")
	}
	if tk.Contains(3) {
		t.Fatal("evicted key still present")
	}
	if got := tk.Bottom(); got != 0.5 {
		t.Fatalf("Bottom after evict = %v, want 0.5", got)
	}
}

func TestTopKRaisesExistingKey(t *testing.T) {
	tk := NewTopK(2)
	tk.Update(1, 0.2)
	tk.Update(2, 0.3)
	if !tk.Update(1, 0.8) {
		t.Fatal("raising existing key reported no change")
	}
	if tk.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (no duplicate entries)", tk.Len())
	}
	if got, _ := tk.Score(1); got != 0.8 {
		t.Fatalf("Score(1) = %v, want 0.8", got)
	}
	if tk.Update(1, 0.5) {
		t.Fatal("lowering existing key reported change")
	}
	if got := tk.Bottom(); got != 0.3 {
		t.Fatalf("Bottom = %v, want 0.3", got)
	}
}

func TestTopKEntriesSorted(t *testing.T) {
	tk := NewTopK(4)
	scores := map[int]float64{1: 0.4, 2: 0.9, 3: 0.1, 4: 0.6}
	for k, s := range scores {
		tk.Update(k, s)
	}
	keys, got := tk.Entries()
	if len(keys) != 4 {
		t.Fatalf("len(keys) = %d, want 4", len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("Entries not descending: %v", got)
		}
	}
	for i, k := range keys {
		if scores[k] != got[i] {
			t.Fatalf("key %d paired with score %v, want %v", k, got[i], scores[k])
		}
	}
}

// TestTopKAgainstBruteForce feeds random streams and compares the retained
// scores with a sorted reference, under eviction and in-place raises.
func TestTopKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		tk := NewTopK(k)
		best := map[int]float64{}
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			key := rng.Intn(20)
			score := float64(rng.Intn(1000)) / 1000
			tk.Update(key, score)
			if score > best[key] {
				best[key] = score
			}
		}
		// Reference: top-k of per-key maxima. TopK may retain fewer than
		// min(k, len(best)) distinct keys because an eviction can discard a
		// key whose later update would have re-qualified it — but retained
		// scores must always be achievable and the bottom must never exceed
		// the true k-th score.
		var ref []float64
		for _, s := range best {
			ref = append(ref, s)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
		keys, scores := tk.Entries()
		for i, key := range keys {
			if scores[i] > best[key] {
				t.Fatalf("retained score %v exceeds best %v for key %d", scores[i], best[key], key)
			}
		}
		if tk.Full() && len(ref) >= k {
			if tk.Bottom() > ref[k-1] {
				t.Fatalf("Bottom %v exceeds true k-th score %v", tk.Bottom(), ref[k-1])
			}
		}
	}
}

// TestTopKMonotoneStream checks the exactness property Koios relies on:
// when every key is offered exactly once (a stream of distinct candidates),
// the retained set is exactly the true top-k.
func TestTopKMonotoneStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(10)
		n := k + rng.Intn(100)
		tk := NewTopK(k)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
			tk.Update(i, scores[i])
		}
		sorted := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		_, got := tk.Entries()
		for i := range got {
			if got[i] != sorted[i] {
				t.Fatalf("rank %d: got %v, want %v", i, got[i], sorted[i])
			}
		}
	}
}

func TestNewTopKPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// TestTopKMatchesModel drives TopK and a plain slice with the same random
// offers — keys that repeat, scores from a coarse grid so that offers equal
// to the bottom and ties among retained scores are common. After every
// step the return value, Bottom, and every key's Contains and Score must
// agree. Which of several entries tied at the bottom an eviction
// drops is the heap's business: the model requires that exactly one of them
// is gone and follows it.
func TestTopKMatchesModel(t *testing.T) {
	type entry struct {
		key   int
		score float64
	}
	const nKeys = 16
	for _, k := range []int{1, 3, 10} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tk := NewTopK(k)
			var model []entry
			find := func(key int) int {
				for i, e := range model {
					if e.key == key {
						return i
					}
				}
				return -1
			}
			bottom := func() float64 {
				least := model[0].score
				for _, e := range model[1:] {
					least = min(least, e.score)
				}
				return least
			}
			for step := 0; step < 600; step++ {
				key := rng.Intn(nKeys)
				at := find(key)
				score := float64(rng.Intn(9)) / 8
				got := tk.Update(key, score)
				want := false
				switch {
				case at >= 0:
					if score > model[at].score {
						model[at].score, want = score, true
					}
				case len(model) < k:
					model, want = append(model, entry{key, score}), true
				case score > bottom():
					want = true
					least, gone := bottom(), -1
					for i, e := range model {
						if e.score == least && !tk.Contains(e.key) {
							if gone >= 0 {
								t.Fatalf("k=%d seed %d step %d: Update(%d, %v) evicted both %d and %d", k, seed, step, key, score, model[gone].key, e.key)
							}
							gone = i
						}
					}
					if gone < 0 {
						t.Fatalf("k=%d seed %d step %d: Update(%d, %v) evicted no entry at the bottom %v", k, seed, step, key, score, least)
					}
					model[gone] = entry{key, score}
				}
				if got != want {
					t.Fatalf("k=%d seed %d step %d: Update(%d, %v) = %v, want %v", k, seed, step, key, score, got, want)
				}
				wantBottom := 0.0
				if len(model) == k {
					wantBottom = bottom()
				}
				if tk.Len() != len(model) || tk.Bottom() != wantBottom {
					t.Fatalf("k=%d seed %d step %d: Len %d Bottom %v, model %d and %v", k, seed, step, tk.Len(), tk.Bottom(), len(model), wantBottom)
				}
				for key := 0; key < nKeys; key++ {
					score, ok := tk.Score(key)
					i := find(key)
					if ok != (i >= 0) || tk.Contains(key) != ok || (ok && score != model[i].score) {
						t.Fatalf("k=%d seed %d step %d: key %d held=%v score %v, model index %d", k, seed, step, key, ok, score, i)
					}
				}
			}
		}
	}
}
