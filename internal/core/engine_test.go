package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/index"
	"repro/internal/sets"
)

const tol = 1e-9

// randomInstance builds a small repository with planted semantic structure
// plus a query, both deterministic in seed.
func randomInstance(seed int64) (*sets.Repository, *embedding.Model, []string) {
	rng := rand.New(rand.NewSource(seed))
	model := embedding.NewModel(embedding.Config{
		Clusters: 20 + rng.Intn(20),
		OOVRate:  0.1 * rng.Float64(),
		Seed:     seed * 31,
	})
	vocab := model.Tokens()
	numSets := 20 + rng.Intn(60)
	raw := make([]sets.Set, numSets)
	for i := range raw {
		card := 1 + rng.Intn(12)
		elems := make([]string, 0, card)
		seen := map[string]bool{}
		for len(elems) < card {
			tok := vocab[rng.Intn(len(vocab))]
			if !seen[tok] {
				seen[tok] = true
				elems = append(elems, tok)
			}
		}
		raw[i] = sets.Set{Elements: elems}
	}
	qCard := 2 + rng.Intn(10)
	query := make([]string, 0, qCard)
	seen := map[string]bool{}
	for len(query) < qCard {
		tok := vocab[rng.Intn(len(vocab))]
		if !seen[tok] {
			seen[tok] = true
			query = append(query, tok)
		}
	}
	return sets.NewRepository(raw), model, query
}

// checkTopK asserts that results form a valid top-k by exact semantic
// overlap: correct size, descending order, and every result's exact score at
// least the true k-th score (ties broken arbitrarily).
func checkTopK(t *testing.T, repo *sets.Repository, model *embedding.Model, query []string, alpha float64, k int, results []Result) {
	t.Helper()
	truth := bruteForceTopK(repo, query, model, alpha)
	wantLen := k
	if len(truth) < k {
		wantLen = len(truth)
	}
	if len(results) != wantLen {
		t.Fatalf("got %d results, want %d (candidates=%d)", len(results), wantLen, len(truth))
	}
	if wantLen == 0 {
		return
	}
	thetaK := truth[wantLen-1].score
	seen := map[int]bool{}
	for i, r := range results {
		if seen[r.SetID] {
			t.Fatalf("duplicate result set %d", r.SetID)
		}
		seen[r.SetID] = true
		exact := exactSO(query, repo.Set(r.SetID), model, alpha)
		if exact < thetaK-tol {
			t.Fatalf("result %d (set %d) has exact SO %v < θ*k %v", i, r.SetID, exact, thetaK)
		}
		if r.Verified && math.Abs(r.Score-exact) > 1e-6 {
			t.Fatalf("verified score %v != exact %v for set %d", r.Score, exact, r.SetID)
		}
		if !r.Verified && r.Score > exact+1e-6 {
			t.Fatalf("unverified score %v exceeds exact %v for set %d", r.Score, exact, r.SetID)
		}
	}
}

// TestSearchExactAgainstBruteForce is the central property test: across
// many random instances and option combinations, Koios must return a valid
// exact top-k.
func TestSearchExactAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		repo, model, query := randomInstance(seed)
		vocab := repo.Vocabulary()
		src := index.NewFuncIndex(vocab, model)
		rng := rand.New(rand.NewSource(seed * 7))
		opts := Options{
			K:     1 + rng.Intn(8),
			Alpha: 0.5 + 0.4*rng.Float64(),
		}
		switch seed % 4 {
		case 1:
			opts.Partitions = 1 + rng.Intn(4)
		case 2:
			opts.Workers = 1 + rng.Intn(4)
		case 3:
			opts.Partitions = 1 + rng.Intn(4)
			opts.Workers = 1 + rng.Intn(4)
			opts.ExactScores = true
		}
		eng := NewEngine(repo, src, opts)
		results, stats := eng.Search(query)
		checkTopK(t, repo, model, query, eng.Options().Alpha, eng.Options().K, results)
		if stats.Candidates != stats.IUBPruned+stats.NoEM+stats.EMEarly+stats.EMFull {
			t.Fatalf("seed %d: filter accounting broken: %+v", seed, stats)
		}
	}
}

// TestSearchAblationsAgree: disabling any filter must never change the
// result scores — filters are optimizations, not semantics.
func TestSearchAblationsAgree(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		repo, model, query := randomInstance(seed)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		base := Options{K: 5, Alpha: 0.7, ExactScores: true}
		variants := []Options{
			base,
			{K: 5, Alpha: 0.7, ExactScores: true, DisableIUB: true},
			{K: 5, Alpha: 0.7, ExactScores: true, DisableNoEM: true},
			{K: 5, Alpha: 0.7, ExactScores: true, DisableEarlyTerm: true},
			{K: 5, Alpha: 0.7, ExactScores: true, DisableIUB: true, DisableNoEM: true, DisableEarlyTerm: true},
			{K: 5, Alpha: 0.7, ExactScores: true, DisableSandwich: true},
			{K: 5, Alpha: 0.7, ExactScores: true, DisableIUB: true, DisableNoEM: true},
		}
		var want []float64
		for vi, opt := range variants {
			results, _ := NewEngine(repo, src, opt).Search(query)
			scores := make([]float64, len(results))
			for i, r := range results {
				scores[i] = r.Score
			}
			if vi == 0 {
				want = scores
				continue
			}
			if len(scores) != len(want) {
				t.Fatalf("seed %d variant %d: %d results, want %d", seed, vi, len(scores), len(want))
			}
			for i := range scores {
				if math.Abs(scores[i]-want[i]) > 1e-6 {
					t.Fatalf("seed %d variant %d rank %d: score %v, want %v", seed, vi, i, scores[i], want[i])
				}
			}
		}
	}
}

// TestSearchPartitionsAgree: the same query must yield the same top-k scores
// for any partition count.
func TestSearchPartitionsAgree(t *testing.T) {
	repo, model, query := randomInstance(7)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	var want []float64
	for _, parts := range []int{1, 2, 3, 5, 9} {
		results, _ := NewEngine(repo, src, Options{K: 6, Alpha: 0.7, Partitions: parts, ExactScores: true}).Search(query)
		scores := make([]float64, len(results))
		for i, r := range results {
			scores[i] = r.Score
		}
		if want == nil {
			want = scores
			continue
		}
		if len(scores) != len(want) {
			t.Fatalf("partitions=%d: %d results, want %d", parts, len(scores), len(want))
		}
		for i := range scores {
			if math.Abs(scores[i]-want[i]) > 1e-6 {
				t.Fatalf("partitions=%d rank %d: %v, want %v", parts, i, scores[i], want[i])
			}
		}
	}
}

// TestPaperExampleEndToEnd reproduces Example 2 / Figure 1: with semantic
// overlap, C2 is the top-1 result (score 4.49), whereas C1 scores 4.09.
func TestPaperExampleEndToEnd(t *testing.T) {
	q := []string{"LA", "Seattle", "Columbia", "Blaine", "BigApple", "Charleston"}
	c1 := sets.Set{Name: "C1", Elements: []string{"LA", "Blain", "Appleton", "MtPleasant", "Lexington", "WestCoast"}}
	c2 := sets.Set{Name: "C2", Elements: []string{"LA", "Sacramento", "Southern", "Blain", "SC", "Minnesota", "NewYorkCity"}}
	repo := sets.NewRepository([]sets.Set{c1, c2})

	ps := newPairSim()
	// C1 edges (Fig. 1, α=0.7): Blaine–Blain 0.99 plus three 0.70 edges.
	ps.set("Blaine", "Blain", 0.99)
	ps.set("Seattle", "WestCoast", 0.70)
	ps.set("Columbia", "Lexington", 0.70)
	ps.set("Charleston", "MtPleasant", 0.70)
	// C2 edges: the conflict structure that defeats greedy matching.
	ps.set("BigApple", "NewYorkCity", 0.90)
	ps.set("Columbia", "Southern", 0.85)
	ps.set("Columbia", "SC", 0.80)
	ps.set("Charleston", "Southern", 0.80)
	// Sub-α noise that must be ignored.
	ps.set("Seattle", "Sacramento", 0.50)

	vocab := repo.Vocabulary()
	src := index.NewFuncIndex(vocab, ps)
	eng := NewEngine(repo, src, Options{K: 1, Alpha: 0.7, ExactScores: true})
	results, _ := eng.Search(q)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].SetID != 1 {
		t.Fatalf("top-1 = %s, want C2", repo.Set(results[0].SetID).Name)
	}
	if math.Abs(results[0].Score-4.49) > tol {
		t.Fatalf("SO(Q,C2) = %v, want 4.49", results[0].Score)
	}
	// And top-2 must rank C2 above C1 with C1 = 4.09.
	results, _ = NewEngine(repo, src, Options{K: 2, Alpha: 0.7, ExactScores: true}).Search(q)
	if len(results) != 2 || results[1].SetID != 0 {
		t.Fatalf("top-2 = %+v", results)
	}
	if math.Abs(results[1].Score-4.09) > tol {
		t.Fatalf("SO(Q,C1) = %v, want 4.09", results[1].Score)
	}
}

func TestSearchEmptyAndDegenerateQueries(t *testing.T) {
	repo, model, _ := randomInstance(5)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 3, Alpha: 0.8})
	if results, _ := eng.Search(nil); len(results) != 0 {
		t.Fatalf("empty query returned %v", results)
	}
	// A query of unknown tokens has no candidates.
	if results, _ := eng.Search([]string{"zz-unknown-1", "zz-unknown-2"}); len(results) != 0 {
		t.Fatalf("unknown-token query returned %v", results)
	}
}

func TestSearchDuplicateQueryElements(t *testing.T) {
	repo, model, query := randomInstance(9)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	dup := append(append([]string{}, query...), query...)
	r1, _ := NewEngine(repo, src, Options{K: 4, Alpha: 0.7, ExactScores: true}).Search(query)
	r2, _ := NewEngine(repo, src, Options{K: 4, Alpha: 0.7, ExactScores: true}).Search(dup)
	if len(r1) != len(r2) {
		t.Fatalf("duplicated query changed result count: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if math.Abs(r1[i].Score-r2[i].Score) > tol {
			t.Fatalf("duplicated query changed scores at rank %d", i)
		}
	}
}

func TestSearchSelfQueryRanksSourceFirst(t *testing.T) {
	repo, model, _ := randomInstance(11)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 1, Alpha: 0.8, ExactScores: true})
	// Query with the elements of set 0: vanilla overlap |C| is attainable
	// only by supersets of it, and set 0 itself scores at least |C|.
	target := repo.Set(0)
	results, _ := eng.Search(target.Elements)
	if len(results) != 1 {
		t.Fatal("no result for self query")
	}
	if results[0].Score < float64(len(target.Elements))-tol {
		t.Fatalf("self query top-1 score %v below vanilla overlap %d", results[0].Score, len(target.Elements))
	}
}

func TestSearchKLargerThanCandidates(t *testing.T) {
	repo, model, query := randomInstance(13)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 10_000, Alpha: 0.7, ExactScores: true})
	results, _ := eng.Search(query)
	truth := bruteForceTopK(repo, query, model, 0.7)
	if len(results) != len(truth) {
		t.Fatalf("k>candidates: got %d results, want %d", len(results), len(truth))
	}
}

func TestSearchDeterministicSinglePartition(t *testing.T) {
	repo, model, query := randomInstance(17)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	opts := Options{K: 5, Alpha: 0.7}
	var prev []Result
	var prevStats Stats
	for trial := 0; trial < 3; trial++ {
		results, stats := NewEngine(repo, src, opts).Search(query)
		if trial == 0 {
			prev, prevStats = results, stats
			continue
		}
		if fmt.Sprint(results) != fmt.Sprint(prev) {
			t.Fatalf("results differ across runs:\n%v\n%v", results, prev)
		}
		if stats.Candidates != prevStats.Candidates || stats.IUBPruned != prevStats.IUBPruned ||
			stats.EMFull != prevStats.EMFull || stats.EMEarly != prevStats.EMEarly {
			t.Fatalf("stats differ across runs: %+v vs %+v", stats, prevStats)
		}
	}
}

func TestStatsPhaseAccounting(t *testing.T) {
	repo, model, query := randomInstance(21)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	_, stats := NewEngine(repo, src, Options{K: 3, Alpha: 0.7}).Search(query)
	if stats.Candidates == 0 {
		t.Skip("instance produced no candidates")
	}
	if stats.StreamTuples <= 0 {
		t.Fatal("no stream tuples counted")
	}
	if stats.TotalBytes() <= 0 {
		t.Fatal("no memory accounted")
	}
	if stats.ResponseTime() <= 0 {
		t.Fatal("no time accounted")
	}
	if stats.IUBPruned+stats.NoEM+stats.EMEarly+stats.EMFull != stats.Candidates {
		t.Fatalf("classification does not partition candidates: %+v", stats)
	}
}

// TestFiltersActuallyPrune uses a larger instance and checks the iUB filter
// eliminates a meaningful share of candidates — the paper's headline claim
// (>85% on medium/large queries) at miniature scale.
func TestFiltersActuallyPrune(t *testing.T) {
	model := embedding.NewModel(embedding.Config{Clusters: 150, Seed: 77})
	vocab := model.Tokens()
	rng := rand.New(rand.NewSource(78))
	raw := make([]sets.Set, 400)
	for i := range raw {
		card := 3 + rng.Intn(25)
		elems := make([]string, 0, card)
		for len(elems) < card {
			elems = append(elems, vocab[rng.Intn(len(vocab))])
		}
		raw[i] = sets.Set{Elements: elems}
	}
	repo := sets.NewRepository(raw)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	query := repo.Set(0).Elements
	_, stats := NewEngine(repo, src, Options{K: 5, Alpha: 0.8}).Search(query)
	if stats.Candidates < 50 {
		t.Skipf("only %d candidates; instance too sparse", stats.Candidates)
	}
	if frac := float64(stats.IUBPruned) / float64(stats.Candidates); frac < 0.3 {
		t.Fatalf("iUB pruned only %.0f%% of %d candidates", frac*100, stats.Candidates)
	}
}

func TestAtomicMax(t *testing.T) {
	var a atomicMax
	if a.Load() != 0 {
		t.Fatal("zero value not 0")
	}
	if !a.Update(1.5) || a.Load() != 1.5 {
		t.Fatal("raise failed")
	}
	if a.Update(1.0) {
		t.Fatal("lowering succeeded")
	}
	if a.Load() != 1.5 {
		t.Fatal("value changed on failed update")
	}
}
