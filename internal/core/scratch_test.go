package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// searchCounters is a search's outcome without its wall-clock fields.
func searchCounters(res []Result, st Stats) string {
	st.RefineTime, st.PostprocTime = 0, 0
	return fmt.Sprintf("%v %+v", res, st)
}

// scratchFootprint lists every slice reachable from v through structs and
// slices of structs — unexported fields included — as path, backing array
// and capacity: two equal footprints mean nothing in between regrew.
func scratchFootprint(path string, v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = scratchFootprint(path, v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = scratchFootprint(path+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	case reflect.Slice:
		out = append(out, fmt.Sprintf("%s %x cap %d", path, v.Pointer(), v.Cap()))
		if v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				out = scratchFootprint(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
			}
		}
	}
	return out
}

// TestRefinerScratchReuse: an engine that has served any sequence of
// searches — small and past-64-element queries interleaved, back to back
// and concurrently — answers each one exactly as a fresh engine does,
// results and every Stats counter, and what its scratch pool hands out
// afterwards is no larger than the collection requires. And a cut search
// repeated on a warm engine finds all of its pooled working memory — the
// pump's block, the replay's events, post-processing's survivors, bounds,
// flags and lists, the verification workers' graphs and solver arrays —
// already large enough: nothing in the scratch regrows.
func TestRefinerScratchReuse(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.05)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	all := ds.Repo.Sets()
	var queries [][]string
	for i := 0; i < 12; i++ {
		queries = append(queries, all[i*len(all)/12].Elements)
	}
	var big []string // > 64 distinct elements: query masks of several words
	for i := 0; len(sets.Dedup(big)) <= 130; i++ {
		big = append(big, all[i].Elements...)
	}
	queries = append(queries, big[:70], all[0].Elements[:1], big, nil)

	for _, k := range []int{1, 5, 20} {
		opts := Options{K: k, Alpha: 0.8, ExactScores: true}
		want := make([]string, len(queries))
		for i, q := range queries {
			res, st := NewEngine(ds.Repo, src, opts).Search(q)
			want[i] = searchCounters(res, st)
		}
		eng := NewEngine(ds.Repo, src, opts)
		rng := rand.New(rand.NewSource(int64(k)))
		for round := 0; round < 3; round++ {
			for _, i := range rng.Perm(len(queries)) {
				res, st := eng.Search(queries[i])
				if got := searchCounters(res, st); got != want[i] {
					t.Fatalf("k=%d round %d query %d (|Q|=%d): reused engine diverges\n got %s\nwant %s", k, round, i, len(queries[i]), got, want[i])
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 2*len(queries); n++ {
					i := (n*7 + g*3) % len(queries)
					res, st := eng.Search(queries[i])
					if got := searchCounters(res, st); got != want[i] {
						t.Errorf("k=%d goroutine %d query %d: concurrent search diverges\n got %s\nwant %s", k, g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()

		// The same cut search twice on its own engine. The pool may drop a
		// scratch between the two (a GC, and the race detector makes it drop
		// some at random), so the comparison waits for a round in which the
		// second search demonstrably ran on the scratch that was measured.
		warm := NewEngine(ds.Repo, src, opts)
		cutQuery := -1
		for i, q := range queries {
			if _, st := warm.Search(q); st.StreamCut && st.VerifyCalls > 0 {
				cutQuery = i
				break
			}
		}
		if cutQuery < 0 {
			t.Fatalf("k=%d: no query cuts the stream and verifies", k)
		}
		for round := 0; ; round++ {
			if round == 100 {
				t.Fatalf("k=%d: the pool never handed the scratch of the search before back", k)
			}
			warm.Search(queries[cutQuery])
			sc := warm.getScratch()
			before := scratchFootprint("scratch", reflect.ValueOf(sc), nil)
			used := cap(sc.raw) > 0 && len(sc.replay) > 0 && cap(sc.post.qub) > 0 && len(sc.verify) > 0 && cap(sc.verify[0].edges) > 0
			warm.scratch.Put(sc)
			warm.Search(queries[cutQuery])
			again := warm.getScratch()
			after := scratchFootprint("scratch", reflect.ValueOf(again), nil)
			warm.scratch.Put(again)
			if !used || again != sc {
				continue
			}
			if fmt.Sprint(before) != fmt.Sprint(after) {
				t.Fatalf("k=%d: a repeated cut search regrew its scratch\nbefore: %v\nafter:  %v", k, before, after)
			}
			break
		}

		// Whatever the pool retained is sized by the collection alone.
		for n := 0; n < 8; n++ {
			sc := eng.getScratch()
			a := &sc.refine
			if cap(a.states) > ds.Repo.Len() || cap(a.score) > ds.Repo.Len() ||
				cap(a.qBits) > ds.Repo.Len() || cap(a.cBits) > eng.cWords ||
				cap(sc.post.qub) > ds.Repo.Len() ||
				cap(sc.offsets) > eng.vocabN || cap(sc.seen) > (eng.vocabN+63)/64 {
				t.Fatalf("k=%d: pooled scratch outgrew the collection: %d states, %d scores, %d+%d mask words for %d sets, %d mask words",
					k, cap(a.states), cap(a.score), cap(a.qBits), cap(a.cBits), ds.Repo.Len(), eng.cWords)
			}
		}
	}
}

// TestIUBBucketsMatchModel files random candidates and then advances their
// true (mRem, ubSum) in states the way a descending stream does — each step
// adds the current level and closes a slot — without telling the buckets.
// Every prune must remove exactly the candidates whose true bound is below
// the threshold, each once, and the heaps together must hold one entry per
// live candidate.
func TestIUBBucketsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCand, maxM := 1+rng.Intn(200), 1+rng.Intn(12)
		states := make([]candState, nCand)
		b := newIUBBuckets(maxM, make([]float64, nCand))
		live := map[int32]bool{}
		level := 1.0
		for step := 0; step < 2000; step++ {
			if rng.Intn(8) == 0 {
				level *= 1 - 0.02*rng.Float64()
			}
			local := int32(rng.Intn(nCand))
			st := &states[local]
			switch {
			case !live[local]:
				st.mRem, st.ubSum = int32(rng.Intn(maxM+1)), float64(rng.Intn(4))
				b.insert(local, int(st.mRem), st.ubSum)
				live[local] = true
			case st.mRem > 0:
				st.mRem--
				st.ubSum += level
			}
			if step%17 != 0 {
				continue
			}
			theta := float64(maxM+3) * level * rng.Float64()
			var want, got []int
			for local := range live {
				if st := &states[local]; st.ubSum+float64(st.mRem)*level < theta {
					want = append(want, int(local))
					delete(live, local)
				}
			}
			b.prune(level, theta, states, func(local int32) { got = append(got, int(local)) })
			sort.Ints(want)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: pruned %v, want %v", seed, step, got, want)
			}
			held := map[int32]bool{}
			for _, h := range b.heaps {
				for _, local := range h {
					if held[local] || !live[local] {
						t.Fatalf("seed %d step %d: candidate %d is filed twice or after its removal", seed, step, local)
					}
					held[local] = true
				}
			}
			if len(held) != len(live) {
				t.Fatalf("seed %d step %d: buckets hold %d entries for %d live candidates", seed, step, len(held), len(live))
			}
		}
	}

	// Rounding: filed with ten open slots and nothing summed, a candidate's
	// bound at level 0.8 is fl(10·0.8) = 8; ten additions of 0.8 later its
	// true bound is an ulp below 8. At a threshold of 8 an always-current
	// filter prunes it, so this one must — the filed bound alone does not
	// say so.
	states := make([]candState, 1)
	b := newIUBBuckets(10, make([]float64, 1))
	b.insert(0, 10, 0)
	for i := 0; i < 10; i++ {
		states[0].ubSum += 0.8
	}
	if filed := 0 + 10*0.8; !(states[0].ubSum < 8 && filed >= 8) {
		t.Fatalf("the rounding case does not straddle: true bound %v, filed bound %v", states[0].ubSum, filed)
	}
	pruned := 0
	b.prune(0.8, 8, states, func(int32) { pruned++ })
	if pruned != 1 {
		t.Fatalf("a candidate an ulp below the threshold was pruned %d times, filed an ulp above it", pruned)
	}
}
