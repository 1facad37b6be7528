package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sim"
)

// warmSearchAllocs and warmSearchBytes are the most a warmed Engine.Search
// may allocate: its answer, the one slice it returns — measured at 1
// allocation of 240 bytes (k = 10 results of 24 bytes) on every shape
// below — and headroom of one allocation and 272 bytes, less than any of
// the buffers the search draws from its pools (the edit kernel alone is
// 2 KB).
const (
	warmSearchAllocs = 2
	warmSearchBytes  = 512
)

// TestWarmSearchAllocs: once the pools a search draws from are warm — the
// engine's scratch, the probe's, the source's kernels and scan buffers — a
// search allocates nothing but its answer (DESIGN.md §3), for the edit
// source on twitter and the vector source on the four datagen shapes, over
// queries of every size the corpus has, a query with repeated elements and
// one with elements in no set. A search is measured on its own, warmed by
// the same search just before (testing.AllocsPerRun counts allocations,
// bytesPerRun bytes), and it is measured again, up to 40 times, while it
// allocates more: sync.Pool may drop an item at any GC — and under the race
// detector a quarter of them at random on Put — and a search that finds one
// dropped is a cold one. After the searches, the engine's pooled
// scratch holds no non-empty string: nothing of a request outlives it there.
func TestWarmSearchAllocs(t *testing.T) {
	type shape struct {
		name string
		ds   *datagen.Dataset
		src  index.NeighborSource
	}
	tw := datagen.GenerateDefault(datagen.Twitter, 0.05)
	shapes := []shape{{"edit/twitter", tw, index.NewDynamicFunc(dictOf(t, tw.Repo), sim.EditSimilarity{})}}
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		shapes = append(shapes, shape{"vector/" + string(kind), ds, index.NewDynamicExact(dictOf(t, ds.Repo), ds.Model.Vector)})
	}
	for _, sh := range shapes {
		eng := NewEngine(sh.ds.Repo, sh.src, Options{K: 10, Alpha: 0.8, Partitions: 1, ExactScores: true})
		// Six sets from the smallest to the largest, the largest with its
		// elements twice over, and a set's elements beside strings no set has.
		byCard := byCardinality(eng)
		var queries [][]string
		for i := 0; i < 6; i++ {
			queries = append(queries, sh.ds.Repo.Elements(byCard[i*(len(byCard)-1)/5]))
		}
		largest := queries[len(queries)-1]
		queries = append(queries, append(append([]string(nil), largest...), largest...))
		queries = append(queries, append([]string{"no set has this", "nor this one"}, queries[2]...))
		for _, q := range queries {
			eng.Search(q)
		}
		for qi, q := range queries {
			search := func() { eng.Search(q) }
			var allocs float64
			var bytes uint64
			for try := 0; try < 40 && (try == 0 || allocs > warmSearchAllocs || bytes > warmSearchBytes); try++ {
				allocs, bytes = testing.AllocsPerRun(1, search), bytesPerRun(search)
			}
			if allocs > warmSearchAllocs || bytes > warmSearchBytes {
				t.Errorf("%s query %d (%d elements): a warm search allocates %v times, %d bytes; want at most %d, %d",
					sh.name, qi, len(q), allocs, bytes, warmSearchAllocs, warmSearchBytes)
			}
		}
		for n := 0; n < 4; n++ {
			sc := eng.getScratch()
			if found := stringsIn("scratch", reflect.ValueOf(sc), map[uintptr]bool{}, nil); len(found) > 0 {
				t.Fatalf("%s: the pooled scratch holds strings after a search: %v", sh.name, found)
			}
			eng.putScratch(sc)
		}
	}
}

// TestPooledEditSearchesConcurrently: searches running at once share the
// edit source's kernel pool and the probe and scan pools, and each answers
// as the same search run alone does — results and every counter. Run it
// under -race.
func TestPooledEditSearchesConcurrently(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.05)
	src := index.NewDynamicFunc(dictOf(t, ds.Repo), sim.EditSimilarity{})
	eng := NewEngine(ds.Repo, src, Options{K: 5, Alpha: 0.8, ExactScores: true})
	all := ds.Repo.Sets()
	queries := make([][]string, 16)
	want := make([]string, len(queries))
	for i := range queries {
		queries[i] = all[i*len(all)/len(queries)].Elements
		want[i] = searchCounters(eng.Search(queries[i]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*len(queries); n++ {
				i := (n*5 + g*7) % len(queries)
				if got := searchCounters(eng.Search(queries[i])); got != want[i] {
					t.Errorf("goroutine %d query %d: a concurrent search diverges\n got %s\nwant %s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// bytesPerRun is testing.AllocsPerRun(1, f) in bytes: what the second of
// two calls of f allocates, run on one P.
func bytesPerRun(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// stringsIn lists every non-empty string reachable from v — through
// pointers, interfaces, maps, structs (unexported fields included) and
// slices up to their capacity, where a pooled buffer may keep what an
// earlier search wrote — as path = value. seen holds the pointers already
// followed.
func stringsIn(path string, v reflect.Value, seen map[uintptr]bool, out []string) []string {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			out = append(out, fmt.Sprintf("%s = %q", path, v.String()))
		}
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			out = stringsIn(path, v.Elem(), seen, out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			out = stringsIn(path, v.Elem(), seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = stringsIn(path+"."+v.Type().Field(i).Name, v.Field(i), seen, out)
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k != reflect.String && k < reflect.Array {
			break // numbers and bools: the arenas, read quickly
		}
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			out = stringsIn(fmt.Sprintf("%s[%d]", path, i), v.Index(i), seen, out)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			out = stringsIn(path+" key", it.Key(), seen, out)
			out = stringsIn(path+" value", it.Value(), seen, out)
		}
	}
	return out
}
