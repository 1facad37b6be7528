package index

import (
	"fmt"
	"slices"
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

// neighborCursors probes ls for qs as a lazy stream does: cursor i serves
// qs[i]'s neighbors.
func neighborCursors(ls LazySource, qs []string, alpha float64) []NeighborCursor {
	bufs := make([][]Neighbor, len(qs))
	ls.ScanNeighbors(qs, alpha, bufs)
	out := make([]NeighborCursor, len(qs))
	for i, buf := range bufs {
		c := new(lazyScan)
		c.reset(buf)
		out[i] = c
	}
	return out
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
					got := drainCursor(neighborCursors(ls, []string{q}, alpha)[0], chunk)
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
		if n := st.PeekRest(func(Tuple) {}); n != len(want)-len(query) {
			t.Fatalf("block %d: the lazy stream holds %d neighbors, the eager drain %d", block, n, len(want)-len(query))
		}
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
	}
}

// TestPeekRestLeavesStream: PeekRest hands over, in some order, exactly the
// tuples the stream has still to deliver — pending identities, merge heads,
// chunk remainders and cursor remainders — counts the neighbors among them,
// and changes nothing: Emitted and the sequence the stream then delivers are
// those of a stream nobody peeked at. Long α-lists span several cursor chunks, and the peek
// comes before the first pull and after part of one.
func TestPeekRestLeavesStream(t *testing.T) {
	vocab := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		vocab = append(vocab, fmt.Sprintf("shared-prefix-token-%03d", i))
	}
	src := NewFuncIndex(vocab, sim.JaccardQGrams{Q: 2})
	query := []string{vocab[0], vocab[1], "out-of-vocab-token", vocab[150]}
	qids := []int32{0, 1, -1, 150}
	key := func(tup Tuple) string { return fmt.Sprint(tup) }
	for _, lazy := range []bool{false, true} {
		for _, pulled := range []int{0, 2, 9, 200} {
			newSt := func() *Stream {
				if lazy {
					return NewLazyStream(query, qids, src, 0.1, nil)
				}
				return NewStreamMasked(query, qids, src, 0.1, nil)
			}
			ref, st := newSt(), newSt()
			head, _ := ref.NextBlock(nil, pulled)
			want, _ := ref.NextBlock(nil, 1<<30)
			got, _ := st.NextBlock(nil, pulled)
			if fmt.Sprint(got) != fmt.Sprint(head) {
				t.Fatalf("lazy=%v: the first %d tuples differ", lazy, pulled)
			}
			emitted := st.Emitted()
			var peeked []string
			neighbors := st.PeekRest(func(tup Tuple) { peeked = append(peeked, key(tup)) })
			if st.Emitted() != emitted {
				t.Fatalf("lazy=%v after %d: the peek moved Emitted %d → %d", lazy, pulled, emitted, st.Emitted())
			}
			if identities := max(len(query)-pulled, 0); neighbors != len(want)-identities {
				t.Fatalf("lazy=%v after %d: the peek counts %d neighbors of %d tuples, %d of them identities", lazy, pulled, neighbors, len(want), identities)
			}
			rest, _ := st.NextBlock(nil, 1<<30)
			if fmt.Sprint(rest) != fmt.Sprint(want) {
				t.Fatalf("lazy=%v after %d: the peek changed what the stream delivers", lazy, pulled)
			}
			var wantKeys []string
			for _, tup := range want {
				wantKeys = append(wantKeys, key(tup))
			}
			slices.Sort(peeked)
			slices.Sort(wantKeys)
			if !slices.Equal(peeked, wantKeys) || len(want) == 0 {
				t.Fatalf("lazy=%v after %d: peeked %d tuples, the stream delivered %d (or none)", lazy, pulled, len(peeked), len(want))
			}
		}
	}
}

// TestReleasedStreamReuse: a stream released part way through — lazy
// cursors, eager ones, a probe mask — keeps its buffers but no query element
// and no token in them, up to their capacity, and the streams drawn from the
// pool after it, over other queries, fewer elements and more, deliver
// exactly what a stream nobody released before does.
func TestReleasedStreamReuse(t *testing.T) {
	vocab := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		vocab = append(vocab, fmt.Sprintf("shared-prefix-token-%03d", i))
	}
	src := NewFuncIndex(vocab, sim.JaccardQGrams{Q: 2})
	queries := [][]string{
		{vocab[0], vocab[1], "out-of-vocab-token", vocab[150]},
		{vocab[7]},
		{vocab[3], vocab[299], vocab[42], vocab[120], vocab[200], vocab[5]},
	}
	drain := func(st *Stream) []Tuple {
		got, _ := st.NextBlock(nil, 1<<30)
		return got
	}
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			lazy := (round+qi)%2 == 0
			var skip []bool
			if round == 2 {
				skip = make([]bool, len(q))
				skip[0] = true
			}
			open := func() *Stream {
				if lazy {
					return NewLazyStream(q, nil, src, 0.1, skip)
				}
				return NewStreamMasked(q, nil, src, 0.1, skip)
			}
			want := drain(open()) // never released
			st := open()
			if got := drain(st); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d query %d lazy=%v: a stream from the pool diverges\ngot:  %v\nwant: %v", round, qi, lazy, got, want)
			}
			half := open()
			half.NextBlock(nil, len(want)/2)
			half.Release()
			if held := streamStrings(half); len(held) > 0 {
				t.Fatalf("round %d query %d lazy=%v: a released stream holds %v", round, qi, lazy, held)
			}
			st.Release()
		}
	}
}

// streamStrings lists the non-empty strings s's buffers hold, to their
// capacity.
func streamStrings(s *Stream) []string {
	var out []string
	note := func(where, str string) {
		if str != "" {
			out = append(out, where+"="+str)
		}
	}
	noteAll := func(where string, ns []Neighbor) {
		for _, n := range ns[:cap(ns)] {
			note(where, n.Token)
		}
	}
	for _, q := range s.query[:cap(s.query)] {
		note("query", q)
	}
	for _, q := range s.probe[:cap(s.probe)] {
		note("probe", q)
	}
	for _, h := range s.heap.Items()[:cap(s.heap.Items())] {
		note("heap", h.token)
	}
	for _, b := range s.bufs[:cap(s.bufs)] {
		noteAll("bufs", b)
	}
	for i := range s.elems[:cap(s.elems)] {
		ec := &s.elems[i]
		noteAll("lazy heap", ec.lazy.h.Items())
		noteAll("lazy chunk", ec.lazy.out)
		noteAll("eager", ec.eager.list)
		noteAll("chunk", ec.chunk)
		if ec.cur != nil {
			out = append(out, "a cursor")
		}
	}
	return out
}
