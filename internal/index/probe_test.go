package index

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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

func neighborLess(a, b Neighbor) int {
	if a.Sim != b.Sim {
		return cmp.Compare(b.Sim, a.Sim)
	}
	return strings.Compare(a.Token, b.Token)
}

// scanSorted probes ls for qs in one ScanNeighbors pass and sorts each
// element's list as Neighbors orders it: list i holds qs[i]'s neighbors.
func scanSorted(ls LazySource, qs []string, alpha float64) [][]Neighbor {
	lists := make([][]Neighbor, len(qs))
	ls.ScanNeighbors(qs, alpha, lists)
	for _, l := range lists {
		slices.SortFunc(l, neighborLess)
	}
	return lists
}

// TestCursorMatchesNeighbors: every LazySource's scan, sorted, must be
// exactly the sequence Neighbors returns — same tokens, same similarities,
// same order.
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
				if got := scanSorted(ls, []string{q}, alpha)[0]; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s α=%.2f q=%q: the scan diverges from Neighbors\nscan:      %v\nneighbors: %v",
						name, alpha, q, got, want)
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

// TestScorerOfApproximate: an approximate source has no exhaustive pair
// scorer.
func TestScorerOfApproximate(t *testing.T) {
	model, vocab := lazyTestModel(t)
	if _, ok := ScorerOf(NewIVF(vocab, model.Vector, 4, 2, 1)); ok {
		t.Fatal("IVF must not claim completeness")
	}
}

// TestReleasedStreamReuse: a stream released part way through — with a
// probe mask or without — keeps its buffers but no query element and no
// token in them, up to their capacity, and the streams drawn from the pool
// after it, over other queries, fewer elements and more, deliver exactly
// what a stream nobody released before does.
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
	drain := func(st *Stream, n int) []Tuple {
		var got []Tuple
		for len(got) < n {
			tup, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, tup)
		}
		return got
	}
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			var skip []bool
			if round == 2 {
				skip = make([]bool, len(q))
				skip[0] = true
			}
			open := func() *Stream { return NewStreamMasked(q, nil, src, 0.1, skip) }
			want := drain(open(), 1<<30) // never released
			st := open()
			if got := drain(st, 1<<30); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d query %d: a stream from the pool diverges\ngot:  %v\nwant: %v", round, qi, got, want)
			}
			half := open()
			drain(half, len(want)/2)
			half.Release()
			if held := streamStrings(half); len(held) > 0 {
				t.Fatalf("round %d query %d: a released stream holds %v", round, qi, held)
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
	for _, q := range s.query[:cap(s.query)] {
		note("query", q)
	}
	for _, h := range s.heap.Items()[:cap(s.heap.Items())] {
		note("heap", h.token)
	}
	for _, ec := range s.elems[:cap(s.elems)] {
		if ec.list != nil {
			out = append(out, "a neighbor list")
		}
	}
	return out
}

// TestReleasedProbeReuse: a probe hands over, per query element, exactly
// the neighbors Neighbors returns (in some order), none for an element the
// mask leaves out, whether the source scans (a LazySource) or not; once
// released it holds no query element and no token, up to the capacity of
// its buffers, and the probes drawn from the pool after it, over other
// queries, fewer elements and more, answer as a fresh one.
func TestReleasedProbeReuse(t *testing.T) {
	model, vocab := lazyTestModel(t)
	v := func(i int) string { return vocab[i%len(vocab)] }
	queries := [][]string{
		{v(0), v(1), "out-of-vocab-token", v(150)},
		{v(7)},
		{v(3), v(299), v(42), v(120), v(200), v(5)},
	}
	for name, src := range map[string]NeighborSource{
		"scan": NewFuncIndex(vocab, model),
		"ivf":  NewIVF(vocab, model.Vector, 4, 2, 1),
	} {
		for round := 0; round < 3; round++ {
			for qi, q := range queries {
				var skip []bool
				if round == 2 {
					skip = make([]bool, len(q))
					skip[len(q)-1] = true
				}
				p := NewProbe(q, src, 0.6, skip)
				for i, e := range q {
					var want []Neighbor
					if skip == nil || !skip[i] {
						want = src.Neighbors(e, 0.6)
					}
					got := slices.Clone(p.Neighbors(i))
					slices.SortFunc(got, neighborLess)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s round %d query %d element %d: the probe holds %v, Neighbors %v", name, round, qi, i, got, want)
					}
				}
				p.Release()
				if held := probeStrings(p); len(held) > 0 {
					t.Fatalf("%s round %d query %d: a released probe holds %v", name, round, qi, held)
				}
			}
		}
	}
}

// probeStrings lists the non-empty strings p's buffers hold, to their
// capacity.
func probeStrings(p *Probe) []string {
	var out []string
	note := func(where, str string) {
		if str != "" {
			out = append(out, where+"="+str)
		}
	}
	for _, q := range p.probe[:cap(p.probe)] {
		note("probe", q)
	}
	for _, l := range p.lists[:cap(p.lists)] {
		for _, n := range l[:cap(l)] {
			note("list", n.Token)
		}
	}
	for _, b := range p.bufs[:cap(p.bufs)] {
		for _, n := range b[:cap(b)] {
			note("bufs", n.Token)
		}
	}
	return out
}
