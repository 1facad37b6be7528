package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// searchCounters is a search's outcome without its wall-clock fields.
func searchCounters(res []Result, st Stats) string {
	st.RefineTime, st.PostprocTime = 0, 0
	st.StreamTime, st.BoundTime, st.WalkTime, st.DrainTime, st.VerifyTime = 0, 0, 0, 0, 0
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
// afterwards is no larger than the collection requires. And a search that
// verifies, repeated on a warm engine, finds all of its pooled working
// memory — the stream, the refiners' buffers, post-processing's survivors,
// bounds, flags and lists, the θlb seed's graphs, the verification
// workers' graphs and solver arrays — already large enough: nothing in the
// scratch regrows.
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

		// The same search twice on its own engine. The pool may drop a
		// scratch between the two (a GC, and the race detector makes it drop
		// some at random), so the comparison waits for a round in which the
		// second search demonstrably ran on the scratch that was measured.
		warm := NewEngine(ds.Repo, src, opts)
		verifying := -1
		for i, q := range queries {
			if _, st := warm.Search(q); st.VerifyCalls > 0 {
				verifying = i
				break
			}
		}
		if verifying < 0 {
			t.Fatalf("k=%d: no query verifies", k)
		}
		for round := 0; ; round++ {
			if round == 100 {
				t.Fatalf("k=%d: the pool never handed the scratch of the search before back", k)
			}
			warm.Search(queries[verifying])
			sc := warm.getScratch()
			before := scratchFootprint("scratch", reflect.ValueOf(sc), nil)
			used := cap(sc.tuples) > 0 && len(sc.refiners) > 0 && cap(sc.post.qub) > 0 && len(sc.verify) > 0 && cap(sc.verify[0].edges) > 0
			warm.scratch.Put(sc)
			warm.Search(queries[verifying])
			again := warm.getScratch()
			after := scratchFootprint("scratch", reflect.ValueOf(again), nil)
			warm.scratch.Put(again)
			if !used || again != sc {
				continue
			}
			if fmt.Sprint(before) != fmt.Sprint(after) {
				t.Fatalf("k=%d: a repeated search regrew its scratch\nbefore: %v\nafter:  %v", k, before, after)
			}
			break
		}

		// A warm search of 100 elements carves its two words of query masks
		// per set from the pooled arena as well: nothing regrows, and the
		// masks are there, in the scratch. As above, a round counts only if
		// the scratch measured had already served a 100-element search.
		wide := sets.Dedup(big)[:100]
		for round := 0; ; round++ {
			if round == 100 {
				t.Fatalf("k=%d: the pool never handed the scratch of the 100-element search back", k)
			}
			warm.Search(wide)
			sc := warm.getScratch()
			before := scratchFootprint("scratch", reflect.ValueOf(sc), nil)
			used := cap(sc.refine.qBits) >= 2*ds.Repo.Len()
			warm.scratch.Put(sc)
			warm.Search(wide)
			again := warm.getScratch()
			after := scratchFootprint("scratch", reflect.ValueOf(again), nil)
			warm.scratch.Put(again)
			if !used || again != sc {
				continue
			}
			if n := len(again.refine.qBits); n != 2*ds.Repo.Len() {
				t.Fatalf("k=%d: the 100-element search carved %d query mask words, want %d", k, n, 2*ds.Repo.Len())
			}
			if fmt.Sprint(before) != fmt.Sprint(after) {
				t.Fatalf("k=%d: a repeated 100-element search regrew its scratch\nbefore: %v\nafter:  %v", k, before, after)
			}
			break
		}

		// Whatever the pool retained is sized by the collection and the
		// widest query's mask words alone.
		qWords := 0
		for _, q := range queries {
			qWords = max(qWords, (len(sets.Dedup(q))+63)/64)
		}
		for n := 0; n < 8; n++ {
			sc := eng.getScratch()
			a := &sc.refine
			if cap(a.states) > ds.Repo.Len() ||
				cap(a.qBits) > ds.Repo.Len()*qWords || cap(a.cBits) > eng.cWords() ||
				cap(sc.post.qub) > ds.Repo.Len() ||
				cap(sc.offsets) > eng.vocabN || cap(sc.seen) > (eng.vocabN+63)/64 {
				t.Fatalf("k=%d: pooled scratch outgrew the collection: %d states, %d+%d mask words for %d sets × %d query words, %d mask words",
					k, cap(a.states), cap(a.qBits), cap(a.cBits), ds.Repo.Len(), qWords, eng.cWords())
			}
		}
	}
}
