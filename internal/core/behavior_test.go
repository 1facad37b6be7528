package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// TestOOVIdentityMatching: query elements the similarity index cannot see
// must still contribute exact matches (the §V out-of-vocabulary rule).
func TestOOVIdentityMatching(t *testing.T) {
	repo := sets.NewRepository([]sets.Set{
		{Name: "has-oov", Elements: []string{"oov-token-1", "oov-token-2", "known"}},
		{Name: "no-oov", Elements: []string{"known", "other"}},
	})
	// A similarity that knows nothing: only identity matches are possible.
	ps := newPairSim()
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	eng := NewEngine(repo, src, Options{K: 2, Alpha: 0.8, ExactScores: true})
	results, _ := eng.Search([]string{"oov-token-1", "oov-token-2", "missing"})
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1 (only has-oov overlaps)", len(results))
	}
	if results[0].SetID != 0 || math.Abs(results[0].Score-2) > tol {
		t.Fatalf("result = %+v, want set 0 with score 2", results[0])
	}
}

// TestNoEMSkipsMatchings: an instance where bounds close (lb = ub for all
// candidates, because the greedy matching is conflict-free) must admit the
// result without any exact matching when the No-EM filter is on.
func TestNoEMSkipsMatchings(t *testing.T) {
	// Disjoint identical copies: every candidate's semantic overlap equals
	// its vanilla overlap, so lb = ub after refinement.
	raw := []sets.Set{
		{Elements: []string{"a", "b", "c"}},
		{Elements: []string{"a", "b"}},
		{Elements: []string{"c"}},
		{Elements: []string{"d", "e"}},
	}
	repo := sets.NewRepository(raw)
	ps := newPairSim()
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	eng := NewEngine(repo, src, Options{K: 2, Alpha: 0.8})
	results, stats := eng.Search([]string{"a", "b", "c"})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if stats.EMFull != 0 || stats.EMEarly != 0 {
		t.Fatalf("exact matchings ran despite closed bounds: %+v", stats)
	}
	if results[0].Score != 3 || results[1].Score != 2 {
		t.Fatalf("scores = %v, %v", results[0].Score, results[1].Score)
	}
	if results[0].Verified {
		t.Fatal("No-EM result should be unverified (score is the proven lower bound)")
	}
}

// TestEarlyTerminationFires: build an instance with one dominant set and
// many large-but-weak sets whose verification should abort early.
func TestEarlyTerminationFires(t *testing.T) {
	ps := newPairSim()
	var raw []sets.Set
	// Dominant set: exact copy of the query.
	query := []string{"q0", "q1", "q2", "q3", "q4", "q5"}
	raw = append(raw, sets.Set{Name: "dominant", Elements: query})
	// Weak sets: every element similar to exactly one query element with a
	// conflicting structure so greedy lb stays low but ub is moderate.
	for s := 0; s < 6; s++ {
		elems := make([]string, 8)
		for e := range elems {
			tok := token(s, e)
			elems[e] = tok
			ps.set(tok, query[e%2], 0.82) // all edges point at q0/q1 → tiny matching
		}
		raw = append(raw, sets.Set{Elements: elems})
	}
	repo := sets.NewRepository(raw)
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	eng := NewEngine(repo, src, Options{K: 1, Alpha: 0.8})
	results, stats := eng.Search(query)
	if len(results) != 1 || results[0].SetID != 0 {
		t.Fatalf("dominant set not found: %+v", results)
	}
	if stats.Candidates != 7 {
		t.Fatalf("candidates = %d, want 7", stats.Candidates)
	}
	// The weak sets must not be fully matched: refinement or post-processing
	// filters handle all of them.
	if stats.EMFull > 1 {
		t.Fatalf("too many full matchings: %+v", stats)
	}
}

func token(s, e int) string {
	return string(rune('f'+s)) + string(rune('0'+e)) + "tok"
}

// TestVanillaLowerBoundInitialization: a candidate sharing exact tokens with
// the query must never be pruned below its vanilla overlap (Lemma 1).
func TestVanillaLowerBoundInitialization(t *testing.T) {
	ps := newPairSim()
	// Strong distractors to pump θlb.
	var raw []sets.Set
	query := []string{"x0", "x1", "x2", "x3"}
	raw = append(raw, sets.Set{Name: "exact-copy", Elements: query})
	raw = append(raw, sets.Set{Name: "exact-sub", Elements: []string{"x0", "x1", "x2"}})
	for i := 0; i < 5; i++ {
		tok := token(9+i, 0)
		ps.set(tok, "x0", 0.95)
		raw = append(raw, sets.Set{Elements: []string{tok}})
	}
	repo := sets.NewRepository(raw)
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	results, _ := NewEngine(repo, src, Options{K: 2, Alpha: 0.8, ExactScores: true}).Search(query)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].SetID != 0 || results[0].Score != 4 {
		t.Fatalf("top-1 = %+v, want exact-copy @ 4", results[0])
	}
	if results[1].SetID != 1 || results[1].Score != 3 {
		t.Fatalf("top-2 = %+v, want exact-sub @ 3", results[1])
	}
}

// TestStatsMemoryMonotoneInAlpha: lowering α grows the token stream and its
// footprint (more candidate edges).
func TestStatsMemoryMonotoneInAlpha(t *testing.T) {
	repo, model, query := randomInstance(33)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	_, loose := NewEngine(repo, src, Options{K: 3, Alpha: 0.55}).Search(query)
	_, tight := NewEngine(repo, src, Options{K: 3, Alpha: 0.95}).Search(query)
	if loose.StreamTuples < tight.StreamTuples {
		t.Fatalf("stream at α=0.55 (%d) smaller than at α=0.95 (%d)", loose.StreamTuples, tight.StreamTuples)
	}
	if loose.MemStreamBytes < tight.MemStreamBytes {
		t.Fatalf("stream footprint shrank with lower α")
	}
}

// TestEngineReuseAcrossQueries: one engine must serve many queries with
// independent results (no state leakage).
func TestEngineReuseAcrossQueries(t *testing.T) {
	repo, model, _ := randomInstance(41)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 3, Alpha: 0.7, ExactScores: true})
	q1 := repo.Elements(0)
	q2 := repo.Elements(1)
	r1a, _ := eng.Search(q1)
	r2, _ := eng.Search(q2)
	r1b, _ := eng.Search(q1)
	if len(r1a) != len(r1b) {
		t.Fatal("same query differs across calls")
	}
	for i := range r1a {
		if r1a[i] != r1b[i] {
			t.Fatalf("query 1 result changed after an interleaved query: %+v vs %+v", r1a[i], r1b[i])
		}
	}
	checkTopK(t, repo, model, sets.Dedup(q2), 0.7, 3, r2)
}

// TestEngineConcurrentSearches: Search must be safe for concurrent use.
func TestEngineConcurrentSearches(t *testing.T) {
	repo, model, _ := randomInstance(43)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 3, Alpha: 0.7, Partitions: 2, Workers: 2})
	done := make(chan []Result, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			q := repo.Elements(g % repo.Len())
			r, _ := eng.Search(q)
			done <- r
		}(g)
	}
	for g := 0; g < 8; g++ {
		if r := <-done; len(r) == 0 {
			t.Fatal("concurrent search returned nothing for a self query")
		}
	}
}

// TestNoCutConsumesWholeStream: every search consumes its whole stream —
// it reports no cut, and StreamTuples is StreamRetrieved plus an identity
// tuple per distinct query element, the tuples of tokens in no live set
// included — at one partition and at four, over the engine alone and as a
// group whose tombstones demote the tokens only deleted sets hold.
func TestNoCutConsumesWholeStream(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.05)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	queries := datagen.NewBenchmark(ds, 17).Queries[:10]
	for _, parts := range []int{1, 4} {
		eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, Partitions: parts})
		dead := tombstoned(eng, 3)
		for qi, q := range queries {
			qN := len(sets.Dedup(q.Elements))
			_, st := eng.Search(q.Elements)
			_, dst, err := dead.SearchContext(context.Background(), q.Elements)
			if err != nil {
				t.Fatal(err)
			}
			for label, st := range map[string]Stats{"engine": st, "tombstoned group": dst} {
				if st.StreamCut || st.StreamTuples != st.StreamRetrieved+qN {
					t.Fatalf("partitions=%d query %d, %s: cut=%v tuples=%d, want the whole stream of %d retrieved + %d identity",
						parts, qi, label, st.StreamCut, st.StreamTuples, st.StreamRetrieved, qN)
				}
			}
		}
	}
}
