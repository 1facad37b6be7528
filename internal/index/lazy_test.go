package index

import (
	"fmt"
	"testing"

	"repro/internal/embedding"
	"repro/internal/sets"
	"repro/internal/sim"
)

func lazyTestModel(t *testing.T) (*embedding.Model, []string) {
	t.Helper()
	model := embedding.NewModel(embedding.Config{Clusters: 12, OOVRate: 0.1, Seed: 99})
	return model, model.Tokens()
}

// drainCursor empties a cursor in chunks of max, concatenating the output.
func drainCursor(c NeighborCursor, max int) []Neighbor {
	var out []Neighbor
	for {
		chunk := c.Next(max)
		if len(chunk) == 0 {
			return out
		}
		out = append(out, append([]Neighbor(nil), chunk...)...)
	}
}

// TestCursorMatchesNeighbors: every LazySource must deliver, through any
// chunking, exactly the sequence Neighbors returns — same tokens, same
// similarities, same order.
func TestCursorMatchesNeighbors(t *testing.T) {
	model, vocab := lazyTestModel(t)
	dict := sets.NewDictionary()
	for _, tok := range vocab {
		dict.Intern(tok)
	}
	sources := map[string]NeighborSource{
		"exact":        NewExact(vocab, model.Vector),
		"funcindex":    NewFuncIndex(vocab, model),
		"dynamicexact": NewDynamicExact(dict, model.Vector),
		"dynamicfunc":  NewDynamicFunc(dict, model),
	}
	for name, src := range sources {
		ls, ok := src.(LazySource)
		if !ok {
			t.Fatalf("%s: expected LazySource", name)
		}
		for _, alpha := range []float64{0.6, 0.8, 0.95} {
			for qi, q := range vocab {
				if qi%37 != 0 {
					continue
				}
				want := src.Neighbors(q, alpha)
				for _, chunk := range []int{1, 3, 1000} {
					got := drainCursor(ls.NeighborCursors([]string{q}, alpha)[0], chunk)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s α=%.2f q=%q chunk=%d: cursor diverges from Neighbors\ncursor:    %v\nneighbors: %v",
							name, alpha, q, chunk, got, want)
					}
				}
			}
		}
	}
}

// TestPairSimExhaustive pins the CompleteScorer contract the lazy cut-off
// relies on: Neighbors(q, α) returns exactly the tokens t ≠ q with
// PairSim(q, t) ≥ α, carrying exactly PairSim(q, t).
func TestPairSimExhaustive(t *testing.T) {
	model, vocab := lazyTestModel(t)
	dict := sets.NewDictionary()
	for _, tok := range vocab {
		dict.Intern(tok)
	}
	sources := map[string]NeighborSource{
		"exact":        NewExact(vocab, model.Vector),
		"funcindex":    NewFuncIndex(vocab, model),
		"dynamicexact": NewDynamicExact(dict, model.Vector),
		"dynamicfunc":  NewDynamicFunc(dict, model),
	}
	const alpha = 0.7
	for name, src := range sources {
		scorer, ok := ScorerOf(src)
		if !ok {
			t.Fatalf("%s: expected CompleteScorer", name)
		}
		for qi, q := range vocab {
			if qi%53 != 0 {
				continue
			}
			byToken := make(map[string]float64)
			for _, n := range src.Neighbors(q, alpha) {
				byToken[n.Token] = n.Sim
			}
			for _, tok := range vocab {
				s := scorer.PairSim(q, tok)
				cached, inList := byToken[tok]
				switch {
				case tok == q:
					if inList {
						t.Fatalf("%s: query token %q in its own neighbor list", name, q)
					}
				case s >= alpha && !inList:
					t.Fatalf("%s q=%q: PairSim(%q)=%v ≥ α but missing from Neighbors", name, q, tok, s)
				case s >= alpha && cached != s:
					t.Fatalf("%s q=%q t=%q: Neighbors sim %v != PairSim %v", name, q, tok, cached, s)
				case s < alpha && inList:
					t.Fatalf("%s q=%q: %q in Neighbors with sim %v but PairSim %v < α", name, q, tok, cached, s)
				}
			}
		}
	}
}

// TestScorerOfUnwrapsCached: the memoization layer is transparent for exact
// sources and opaque for approximate ones.
func TestScorerOfUnwrapsCached(t *testing.T) {
	model, vocab := lazyTestModel(t)
	if _, ok := ScorerOf(NewCached(NewExact(vocab, model.Vector))); !ok {
		t.Fatal("Cached over Exact should expose a CompleteScorer")
	}
	if _, ok := ScorerOf(NewCached(NewIVF(vocab, model.Vector, 4, 2, 1))); ok {
		t.Fatal("Cached over IVF must not claim completeness")
	}
	if _, ok := ScorerOf(NewIVF(vocab, model.Vector, 4, 2, 1)); ok {
		t.Fatal("IVF must not claim completeness")
	}
}

// TestStreamBlockEquivalence: pulling through NextBlock (any block size,
// lazy probing) yields exactly the tuple sequence of an eager tuple-by-tuple
// drain, and Level is a sound, monotone bound on everything not yet seen.
func TestStreamBlockEquivalence(t *testing.T) {
	model, vocab := lazyTestModel(t)
	src := NewExact(vocab, model.Vector)
	query := []string{vocab[0], vocab[7], vocab[19], "out-of-vocab-token", vocab[41]}
	qids := []int32{0, 7, 19, -1, 41}
	const alpha = 0.62

	var want []Tuple
	ref := NewStreamMasked(query, qids, src, alpha, nil)
	for {
		tup, ok := ref.Next()
		if !ok {
			break
		}
		want = append(want, tup)
	}

	for _, block := range []int{1, 2, 7, 64, 4096} {
		st := NewLazyStream(query, qids, src, alpha, nil)
		var got []Tuple
		level := st.Level()
		if level != 1 {
			t.Fatalf("block %d: initial level %v, want 1 (identity tuples pending)", block, level)
		}
		more := true
		for more {
			before := len(got)
			got, more = st.NextBlock(got, block)
			newLevel := st.Level()
			for _, tup := range got[before:] {
				if lv := tup.Sim; lv < newLevel-1e-12 && tup.Sim != 1 {
					t.Fatalf("block %d: emitted sim %v below reported level %v", block, tup.Sim, newLevel)
				}
			}
			if newLevel > level {
				t.Fatalf("block %d: level rose from %v to %v", block, level, newLevel)
			}
			level = newLevel
		}
		if st.Level() != 0 {
			t.Fatalf("block %d: exhausted stream reports level %v", block, st.Level())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("block %d: tuple sequence diverges from eager drain\ngot:  %v\nwant: %v", block, got, want)
		}
		if st.Retrieved() != ref.Retrieved() {
			t.Fatalf("block %d: exhausted lazy stream retrieved %d, eager %d", block, st.Retrieved(), ref.Retrieved())
		}
	}
}

// TestLazyStreamRetrievedGrows: a lazy stream abandoned early reports fewer
// retrieved neighbors than the full fetch — the observability contract
// behind Stats.StreamRetrieved.
func TestLazyStreamRetrievedGrows(t *testing.T) {
	fn := sim.JaccardQGrams{Q: 2}
	// A long common prefix keeps every pair's q-gram Jaccard above α, so
	// each probe's α-list (≈300 neighbors) spans several cursor chunks.
	vocab := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		vocab = append(vocab, fmt.Sprintf("shared-prefix-token-%03d", i))
	}
	src := NewFuncIndex(vocab, fn)
	query := []string{vocab[0], vocab[1]}
	full := NewStreamMasked(query, nil, src, 0.1, nil)
	st := NewLazyStream(query, nil, src, 0.1, nil)
	var buf []Tuple
	buf, _ = st.NextBlock(buf, len(query)+3) // identities + a few
	if len(buf) != len(query)+3 {
		t.Fatalf("short pull returned %d tuples", len(buf))
	}
	if st.Retrieved() >= full.Retrieved() {
		t.Fatalf("abandoned lazy stream retrieved %d, full fetch %d — no laziness observable",
			st.Retrieved(), full.Retrieved())
	}
}
