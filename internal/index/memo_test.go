package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sets"
	"repro/internal/sim"
)

// memoVec gives a token the vector of its letter counts over "abc", so
// tokens of similar letter counts are neighbours at every α, and none to a
// token holding a 'd' — a dictionary token without a row, which puts rows
// and IDs apart.
func memoVec(tok string) ([]float32, bool) {
	v := make([]float32, 3)
	for _, c := range tok {
		if c == 'd' {
			return nil, false
		}
		v[c-'a']++
	}
	return v, true
}

// memoToken derives a short token over "abcd" from x.
func memoToken(x uint32) string {
	x = x*2654435761 + 12345
	b := make([]byte, 1+x%5)
	for i := range b {
		x = x*1103515245 + 12345
		b[i] = "abcd"[x>>16&3]
	}
	return string(b)
}

// memoFixture is a growing dictionary under both dynamic exhaustive
// sources, and the views of each a probe can be held to.
type memoFixture struct {
	dict *sets.Dictionary
	vec  *DynamicExact
	fn   *DynamicFunc
}

func newMemoFixture() *memoFixture {
	dict := sets.NewDictionary()
	return &memoFixture{dict: dict, vec: NewDynamicExact(dict, memoVec), fn: NewDynamicFunc(dict, sim.EditSimilarity{})}
}

// probeView probes qs on the vector source's view v through the memo, as
// ScanNeighbors does on the current view.
func (f *memoFixture) probeView(v *vecView, qs []string, alpha float64) [][]Neighbor {
	bufs := make([][]Neighbor, len(qs))
	v.probe(qs, alpha, bufs, func(q string) int { return f.vec.lookup(v, q) })
	return bufs
}

// probeTokens probes qs on the function source's snapshot tokens through
// the memo, as ScanNeighbors does on the current snapshot.
func (f *memoFixture) probeTokens(tokens, qs []string, alpha float64) [][]Neighbor {
	bufs := make([][]Neighbor, len(qs))
	f.fn.growMemo(len(tokens))
	f.fn.probe(tokens, qs, alpha, bufs, func(q string) int { return int(f.dict.Lookup(q)) })
	return bufs
}

// scanView is a fresh scan of q on v, past the memo, sorted.
func (f *memoFixture) scanView(v *vecView, q string, alpha float64) []Neighbor {
	qi := f.vec.lookup(v, q)
	if qi < 0 {
		return nil
	}
	return sorted(v.scan(qi, alpha, nil))
}

// scanTokens is a fresh scan of q over tokens, past the memo, sorted.
func (f *memoFixture) scanTokens(tokens []string, q string, alpha float64) []Neighbor {
	return sorted(f.fn.scan(tokens, q, alpha, nil))
}

// sameLists sorts each of got and compares it with want[i] bit for bit.
func sameLists(got, want [][]Neighbor) error {
	for i := range want {
		if err := sameNeighborBits(sorted(slices.Clone(got[i])), want[i]); err != nil {
			return fmt.Errorf("element %d: %w", i, err)
		}
	}
	return nil
}

// checkMemoProbe probes qs through entry (0 Neighbors, 1 ScanNeighbors, 2
// NewProbe) on both sources' current views, and through the memo on the
// retained views old and oldTokens when they are set, and holds every answer
// to a fresh scan of the same view.
func (f *memoFixture) checkMemoProbe(entry int, qs []string, alpha float64, old *vecView, oldTokens []string) error {
	if old != nil {
		want := make([][]Neighbor, len(qs))
		for i, q := range qs {
			want[i] = f.scanView(old, q, alpha)
		}
		if err := sameLists(f.probeView(old, qs, alpha), want); err != nil {
			return fmt.Errorf("vector, old view of %d rows: %w", len(old.tokens), err)
		}
		for i, q := range qs {
			want[i] = f.scanTokens(oldTokens, q, alpha)
		}
		if err := sameLists(f.probeTokens(oldTokens, qs, alpha), want); err != nil {
			return fmt.Errorf("function, old snapshot of %d tokens: %w", len(oldTokens), err)
		}
		return nil
	}
	v, tokens := f.vec.current(), f.dict.Snapshot()
	for _, src := range []struct {
		name string
		src  interface {
			NeighborSource
			LazySource
		}
		scan func(string) []Neighbor
	}{
		{"vector", f.vec, func(q string) []Neighbor { return f.scanView(v, q, alpha) }},
		{"function", f.fn, func(q string) []Neighbor { return f.scanTokens(tokens, q, alpha) }},
	} {
		want := make([][]Neighbor, len(qs))
		for i, q := range qs {
			want[i] = src.scan(q)
		}
		got := make([][]Neighbor, len(qs))
		switch entry {
		case 0:
			for i, q := range qs {
				got[i] = src.src.Neighbors(q, alpha)
			}
		case 1:
			src.src.ScanNeighbors(qs, alpha, got)
		default:
			p := NewProbe(qs, src.src, alpha, nil)
			for i := range qs {
				got[i] = slices.Clone(p.Neighbors(i))
			}
			p.Release()
		}
		if err := sameLists(got, want); err != nil {
			return fmt.Errorf("%s, entry %d: %w", src.name, entry, err)
		}
	}
	return nil
}

// FuzzNeighbourMemo: bytes grow a dictionary under a DynamicExact and a
// DynamicFunc, retain older views, and probe tokens — in the dictionary,
// without a vector, and outside it — at two α values through Neighbors,
// ScanNeighbors and NewProbe on the current views, and through the memo on
// a retained older view. Every answer must be a fresh scan's of the same
// view: the same tokens, the same IDs and the same Sim bits.
func FuzzNeighbourMemo(f *testing.F) {
	// grow, probe, grow (new neighbours), probe again, retain, grow, probe
	// the old view, switch α, probe both.
	f.Add([]byte{3, 0, 40, 2, 1, 6, 2, 0, 41, 2, 1, 1, 0, 0, 42, 7, 1, 6, 2, 22, 1, 18, 2, 6, 3})
	f.Add([]byte{200, 0, 7, 0, 9, 1, 0, 10, 2, 3, 10, 2, 3, 11, 0, 12, 7, 3, 23, 5, 22, 4, 0, 13, 6, 5})
	f.Add([]byte{90, 0, 255, 0, 128, 10, 1, 14, 15, 0, 77, 26, 1, 30, 2, 3, 0, 2, 3, 7, 9, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		alphas := [2]float64{0.5 + float64(data[0]%5)/10, 0.4 + float64(data[0]/5%6)/10}
		fx := newMemoFixture()
		var old *vecView
		var oldTokens []string
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0: // intern 1–8 tokens
				for k := 0; k <= int(arg%8); k++ {
					fx.dict.Intern(memoToken(uint32(arg)<<8 | uint32(fx.dict.Size()+k)))
				}
				if op&4 != 0 {
					fx.vec.Sync()
					fx.fn.Sync()
				}
			case 1: // retain the current views
				old, oldTokens = fx.vec.current(), fx.dict.Snapshot()
			default: // probe on the current views (2) or on the retained ones (3)
				n := fx.dict.Size()
				if n == 0 {
					continue
				}
				qs := []string{fx.dict.Snapshot()[int(arg)%n]}
				if arg&64 != 0 {
					qs = append(qs, memoToken(uint32(arg)*7)+"x") // outside the dictionary
				}
				if q := fx.dict.Snapshot()[int(arg/3)%n]; arg&128 != 0 && q != qs[0] {
					qs = append(qs, q)
				}
				alpha := alphas[op>>2&1]
				view, tokens := (*vecView)(nil), []string(nil)
				if op%4 == 3 && old != nil {
					view, tokens = old, oldTokens
				}
				if err := fx.checkMemoProbe(int(op>>3)%3, qs, alpha, view, tokens); err != nil {
					t.Fatalf("op %d, probe %q at α=%v: %v", i/2, qs, alpha, err)
				}
			}
		}
	})
}

// TestNeighbourMemoConcurrent: probers on both dynamic sources beside a
// writer that grows the dictionary. Whatever view a probe ran on, its
// neighbours among the tokens interned before the probers started are a
// fresh scan's of those tokens; run under -race, a slot published without
// its entry, or a table grown under a reader, is a race.
func TestNeighbourMemoConcurrent(t *testing.T) {
	fx := newMemoFixture()
	for x := uint32(0); fx.dict.Size() < 120; x++ {
		fx.dict.Intern(memoToken(x))
	}
	base, v0 := fx.dict.Snapshot(), fx.vec.current()
	const alpha = 0.6
	want := make(map[string][2][]Neighbor)
	for _, q := range base {
		want[q] = [2][]Neighbor{fx.scanView(v0, q, alpha), fx.scanTokens(base, q, alpha)}
	}
	below := func(ns []Neighbor) []Neighbor {
		var out []Neighbor
		for _, nb := range sorted(slices.Clone(ns)) {
			if int(nb.ID) < len(base) {
				out = append(out, nb)
			}
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for x := uint32(1000); x < 1400; x++ {
			fx.dict.Intern(memoToken(x))
			if x%3 == 0 {
				fx.vec.Sync()
				fx.fn.Sync()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 60; round++ {
				qs := []string{base[(g*31+round)%len(base)], base[(g*7+round*3)%len(base)]}
				if qs[0] == qs[1] {
					qs = qs[:1]
				}
				for s, src := range []NeighborSource{fx.vec, fx.fn} {
					var lists [][]Neighbor
					if round%2 == 0 {
						p := NewProbe(qs, src, alpha, nil)
						for i := range qs {
							lists = append(lists, slices.Clone(p.Neighbors(i)))
						}
						p.Release()
					} else {
						for _, q := range qs {
							lists = append(lists, src.Neighbors(q, alpha))
						}
					}
					for i, q := range qs {
						if err := sameNeighborBits(below(lists[i]), want[q][s]); err != nil {
							t.Errorf("source %d, prober %d round %d, q=%q: %v", s, g, round, q, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNeighbourMemoCopiesOut: a caller owns what it is handed. Sorting a
// Neighbors result another way and writing over it, or releasing a Probe
// (which clears the lists it owns), leaves the next answer for the same
// token intact, on every exhaustive source.
func TestNeighbourMemoCopiesOut(t *testing.T) {
	model, vocab := lazyTestModel(t)
	dict, err := sets.NewDictionaryFromTokens(vocab)
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.6
	for name, src := range map[string]NeighborSource{
		"exact":        NewExact(vocab, model.Vector),
		"funcindex":    NewFuncIndex(vocab, model),
		"dynamicexact": NewDynamicExact(dict, model.Vector),
		"dynamicfunc":  NewDynamicFunc(dict, sim.EditSimilarity{}),
	} {
		for qi := 0; qi < len(vocab); qi += 29 {
			q := vocab[qi]
			want := slices.Clone(src.Neighbors(q, alpha))
			got := src.Neighbors(q, alpha)
			slices.SortFunc(got, func(a, b Neighbor) int { return int(b.ID - a.ID) })
			for i := range got {
				got[i] = Neighbor{Token: "clobbered", Sim: -1, ID: -1}
			}
			p := NewProbe([]string{q}, src, alpha, nil)
			p.Release()
			if err := sameNeighborBits(src.Neighbors(q, alpha), want); err != nil {
				t.Fatalf("%s q=%q: after a caller sorted and overwrote its copy and a probe was released: %v", name, q, err)
			}
			p = NewProbe([]string{q}, src, alpha, nil)
			err := sameNeighborBits(sorted(slices.Clone(p.Neighbors(0))), want)
			p.Release()
			if err != nil {
				t.Fatalf("%s q=%q: probe: %v", name, q, err)
			}
		}
	}
}

// countingFunc is a similarity function without kernels that counts its
// evaluations: a scan over n tokens makes n − 1 of them for a query in the
// vocabulary, n for one outside it.
type countingFunc struct {
	fn    sim.Func
	calls *atomic.Int64
}

func (c countingFunc) Sim(a, b string) float64 {
	c.calls.Add(1)
	return c.fn.Sim(a, b)
}

func (c countingFunc) Name() string { return c.fn.Name() }

// countingSources returns the two function sources over vocab, both
// counting their similarity evaluations into calls.
func countingSources(t *testing.T, vocab []string, calls *atomic.Int64) map[string]NeighborSource {
	t.Helper()
	dict, err := sets.NewDictionaryFromTokens(vocab)
	if err != nil {
		t.Fatal(err)
	}
	fn := countingFunc{sim.EditSimilarity{}, calls}
	return map[string]NeighborSource{
		"funcindex":   NewFuncIndex(vocab, fn),
		"dynamicfunc": NewDynamicFunc(dict, fn),
	}
}

// TestNeighbourMemoScansOnce: a source scans a vocabulary token once per α —
// α is part of the key, so a second α scans and replaces the entry, and the
// first scans again — and a string outside the vocabulary every time. Under
// the vector sources, the memo holds an entry per probed row at its α.
func TestNeighbourMemoScansOnce(t *testing.T) {
	model, vocab := lazyTestModel(t)
	dict, err := sets.NewDictionaryFromTokens(vocab)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	perScan := int64(len(vocab) - 1)
	for name, src := range countingSources(t, vocab, calls) {
		calls.Store(0)
		scans := func(want int64, what string) {
			t.Helper()
			if got := calls.Swap(0); got != want {
				t.Fatalf("%s: %s made %d similarity calls, want %d", name, what, got, want)
			}
		}
		src.Neighbors(vocab[0], 0.8)
		scans(perScan, "the first probe")
		src.Neighbors(vocab[0], 0.8)
		scans(0, "a second probe at the same α")
		src.Neighbors(vocab[0], 0.7)
		scans(perScan, "a probe at another α")
		src.Neighbors(vocab[0], 0.7)
		scans(0, "a second probe at that α")
		src.Neighbors(vocab[0], 0.8)
		scans(perScan, "a probe at the replaced α")
		src.Neighbors("outside the vocabulary", 0.8)
		src.Neighbors("outside the vocabulary", 0.8)
		scans(2*perScan+2, "two probes of a string outside the vocabulary")
	}

	for name, src := range map[string]NeighborSource{
		"exact":        NewExact(vocab, model.Vector),
		"dynamicexact": NewDynamicExact(dict, model.Vector),
	} {
		var rows *vecRows
		var rowOf func(string) int
		switch s := src.(type) {
		case *Exact:
			rows, rowOf = &s.rows, func(q string) int {
				if qi, ok := s.byToken[q]; ok {
					return qi
				}
				return -1
			}
		case *DynamicExact:
			v := s.current()
			rows, rowOf = &v.vecRows, func(q string) int { return s.lookup(v, q) }
		}
		q := vocab[0]
		for i := 0; rowOf(q) < 0; i++ {
			q = vocab[i] // a token with a vector
		}
		first := src.Neighbors(q, 0.8)
		e := rows.memo.load(rowOf(q), 0.8, len(rows.tokens))
		if e == nil || len(e.ids) != len(first) {
			t.Fatalf("%s: no entry of %d neighbours after a probe: %+v", name, len(first), e)
		}
		src.Neighbors(q, 0.8)
		if again := rows.memo.load(rowOf(q), 0.8, len(rows.tokens)); again != e {
			t.Fatalf("%s: a second probe at the same α replaced the entry", name)
		}
		src.Neighbors(q, 0.7)
		if rows.memo.load(rowOf(q), 0.8, len(rows.tokens)) != nil || rows.memo.load(rowOf(q), 0.7, len(rows.tokens)) == nil {
			t.Fatalf("%s: a probe at another α did not replace the entry", name)
		}
	}
}

// TestNeighbourMemoOverlappingQueries: probing every element of overlapping
// queries once scans each distinct element once, after which every probe of
// them, through NewProbe or Neighbors, is answered without a scan.
func TestNeighbourMemoOverlappingQueries(t *testing.T) {
	_, vocab := lazyTestModel(t)
	calls := new(atomic.Int64)
	perScan := int64(len(vocab) - 1)
	for name, src := range countingSources(t, vocab, calls) {
		calls.Store(0)
		queries := [][]string{vocab[1:4], vocab[2:6], vocab[5:7]}
		for _, q := range queries {
			NewProbe(q, src, 0.8, nil).Release()
		}
		if got := calls.Swap(0); got != 6*perScan {
			t.Fatalf("%s: probing overlapping queries over 6 distinct elements made %d similarity calls, want %d", name, got, 6*perScan)
		}
		for _, q := range queries {
			NewProbe(q, src, 0.8, nil).Release()
			for _, el := range q {
				src.Neighbors(el, 0.8)
			}
		}
		if got := calls.Swap(0); got != 0 {
			t.Fatalf("%s: probing them again made %d similarity calls, want 0", name, got)
		}
	}
}

// BenchmarkProbe times one search's probe — NewProbe over a query's
// elements, then Release — in the shapes of the benchmark's search_small
// (the vector source over datagen twitter at scale 1.0, 120 queries) and
// search_edit (edit similarity over the same corpus, 150 queries). In the
// cold rows every probe is at an α no earlier probe used — 0.8 less a
// multiple of 1e-13, under 1e-6 in all — so every element misses: a cold
// probe is a scan plus the stores. In the warm rows every
// query has been probed at 0.8 once before the timer starts, so every
// element of the vocabulary is a hit. BenchmarkArenaScan and
// BenchmarkFuncScan time the scans alone.
func BenchmarkProbe(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	all := ds.Repo.Sets()
	dict, err := sets.NewDictionaryFromTokens(ds.Repo.Vocabulary())
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name    string
		queries int
		src     NeighborSource
	}{
		{"search_small", 120, NewDynamicExact(dict, ds.Model.Vector)},
		{"search_edit", 150, NewDynamicFunc(dict, sim.EditSimilarity{})},
	}
	for _, warm := range []bool{false, true} {
		for _, sh := range shapes {
			queries := make([][]string, sh.queries)
			for i := range queries {
				queries[i] = all[i*len(all)/len(queries)].Elements
			}
			name := "cold/" + sh.name
			if warm {
				name = "warm/" + sh.name
			}
			b.Run(name, func(b *testing.B) {
				for _, q := range queries {
					NewProbe(q, sh.src, 0.8, nil).Release() // grows the pooled lists, and warms the memo
				}
				elems := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					alpha := 0.8
					if !warm {
						alpha -= float64(i+1) * 1e-13
					}
					q := queries[i%len(queries)]
					NewProbe(q, sh.src, alpha, nil).Release()
					elems += len(q)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/math.Max(float64(elems), 1), "ns/elem")
			})
		}
	}
}
