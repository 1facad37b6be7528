package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sets"
	"repro/internal/sim"
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

// checkTopK asserts that results are the exact top-k under the rule
// (DESIGN.md §1): the first k sets of the reference model's brute-force
// ranking (internal/model) by score, then name, then set ID. A verified
// result must carry its set's exact score bit
// for bit; one the No-EM filter admitted reports a lower bound on it. When
// every result is verified they must come in the ranking's order.
func checkTopK(t *testing.T, repo *sets.Repository, fn sim.Func, query []string, alpha float64, k int, results []Result) {
	t.Helper()
	truth := modelTopK(t, model.NewRanker(repo.Sets(), fn, alpha), query, k)
	if len(results) != len(truth) {
		t.Fatalf("got %d results, want %d", len(results), len(truth))
	}
	want := make(map[int]float64, len(truth))
	for _, s := range truth {
		want[s.Index] = s.Score
	}
	verified := true
	for i, r := range results {
		exact, ok := want[r.SetID]
		if !ok {
			t.Fatalf("result %d: set %d (%s, score %v) is not in the top-%d %v", i, r.SetID, repo.Set(r.SetID).Name, r.Score, k, truth)
		}
		delete(want, r.SetID)
		verified = verified && r.Verified
		if r.Verified && math.Float64bits(r.Score) != math.Float64bits(exact) {
			t.Fatalf("verified score %v != exact %v for set %d", r.Score, exact, r.SetID)
		}
		if !r.Verified && r.Score > exact+1e-6 {
			t.Fatalf("unverified score %v exceeds exact %v for set %d", r.Score, exact, r.SetID)
		}
	}
	for i, r := range results {
		if verified && r.SetID != truth[i].Index {
			t.Fatalf("rank %d: set %d, the ranking has set %d (%v)", i, r.SetID, truth[i].Index, truth)
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
		checkTopK(t, repo, model, query, opts.Alpha, opts.K, results)
		if stats.Candidates != stats.IUBPruned+stats.NoEM+stats.EMEarly+stats.EMFull {
			t.Fatalf("seed %d: filter accounting broken: %+v", seed, stats)
		}
	}
}

// answer is a search's answer as the rule fixes it: names and score bits.
type answer []struct {
	name string
	bits uint64
}

// answerOf searches g for query and returns its answer and statistics.
func answerOf(t *testing.T, g *Group, query []string) (answer, Stats) {
	t.Helper()
	res, st, err := g.SearchContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	out := make(answer, len(res))
	for i, r := range res {
		out[i].name, out[i].bits = g.Engines[r.Seg].repo.Set(r.Local).Name, math.Float64bits(r.Score)
	}
	return out, st
}

// deadByName returns e alone as a Group in which the sets whose names dead
// holds are deleted, tombstoned in Dead and their tokens out of LiveTokens
// unless a live set holds them too.
func deadByName(e *Engine, dead map[string]bool) *Group {
	g := e.group()
	if len(dead) == 0 {
		return g
	}
	n := e.repo.Len()
	mask := make([]uint64, (n+63)/64)
	live := make([]uint64, (e.vocabN+63)/64)
	for sid := range n {
		if dead[e.repo.Set(sid).Name] {
			mask[sid>>6] |= 1 << (uint(sid) & 63)
			continue
		}
		for _, id := range e.repo.Set(sid).ElemIDs {
			live[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	g.Dead, g.LiveTokens = [][]uint64{mask}, live
	return g
}

// TestSearchPartitionsAgree: an answer depends on the data only (DESIGN.md
// §1) — the same query must yield the same set names and score bits for
// any partition count, any number of verification workers and the sets
// numbered in another order, and they must be the brute-force ranking's.
// It compares partition counts (checkPartitionCounts) and, on the
// benchmark's four workload shapes, every variant and every query against
// brute force (checkWorkloadShapes).
func TestSearchPartitionsAgree(t *testing.T) {
	checkPartitionCounts(t)
	checkWorkloadShapes(t)
}

// checkPartitionCounts compares partition counts 1, 2, 3, 5 and 9 on a
// random instance and on benchmark queries of the four datagen shapes.
// Without ExactScores a search verifies no result set only to make its
// score exact, however many partitions it has.
func checkPartitionCounts(t *testing.T) {
	named := func(raw []sets.Set) []sets.Set {
		out := slices.Clone(raw)
		for i := range out {
			out[i].Name = fmt.Sprintf("r%03d", (i*37)%len(out))
		}
		return out
	}
	type input struct {
		name    string
		repo    *sets.Repository
		src     index.NeighborSource
		opts    Options
		queries [][]string
	}
	repo, model, query := randomInstance(7)
	repo = sets.NewRepository(named(repo.Sets()))
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	inputs := []input{{"random", repo, src, Options{K: 6, Alpha: 0.7, ExactScores: true}, [][]string{query}}}
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.02)
		in := input{string(kind), ds.Repo, index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector),
			Options{K: 10, Alpha: 0.8, ExactScores: true}, nil}
		for _, q := range datagen.NewBenchmark(ds, 17).Queries[:8] {
			in.queries = append(in.queries, q.Elements)
		}
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		want := make([]answer, len(in.queries))
		for _, parts := range []int{1, 2, 3, 5, 9} {
			opts := in.opts
			opts.Partitions = parts
			g := NewEngine(in.repo, in.src, opts).group()
			for qi, q := range in.queries {
				got, _ := answerOf(t, g, q)
				if want[qi] == nil {
					want[qi] = got
					continue
				}
				if !slices.Equal(got, want[qi]) {
					t.Fatalf("%s query %d, partitions=%d: %v, want %v", in.name, qi, parts, got, want[qi])
				}
			}
		}
	}
	if _, st := NewEngine(repo, src, Options{K: 6, Alpha: 0.7, Partitions: 3}).Search(query); st.FinalizeEM != 0 {
		t.Fatalf("partitions=3 without ExactScores: %d finalizing verifications, want 0", st.FinalizeEM)
	}
}

// checkWorkloadShapes compares 150 queries on each of the benchmark's four
// workload shapes — twitter 1.0 over vectors and over edit similarity,
// opendata 0.1 with queries of 100–400 elements, and twitter 0.5 with every
// fourth set tombstoned — against one partition and one worker, over the
// sets in insertion order: each variant must give the same names and score
// bits. Every query's answer must also be the first k of a brute-force
// ranking of the live sets by the reference model (internal/model), which
// scores every set without the engine's stream, bounds or filters.
func checkWorkloadShapes(t *testing.T) {
	type shape struct {
		name    string
		ds      *datagen.Dataset
		edit    bool
		every   int // every every-th set is tombstoned (0: none)
		lo, hi  int // query cardinalities (0: any)
		queries [][]string
	}
	twitter := datagen.GenerateDefault(datagen.Twitter, 1.0)
	shapes := []*shape{
		{name: "twitter 1.0 vector", ds: twitter},
		{name: "twitter 1.0 edit", ds: twitter, edit: true},
		{name: "opendata 0.1", ds: datagen.GenerateDefault(datagen.OpenData, 0.1), lo: 100, hi: 400},
		{name: "twitter 0.5 tombstoned", ds: datagen.GenerateDefault(datagen.Twitter, 0.5), every: 4},
	}
	base := Options{K: 10, Alpha: 0.8, ExactScores: true}
	variants := []struct {
		name string
		opts func(o Options) Options
	}{
		{"partitions 4", func(o Options) Options { o.Partitions = 4; return o }},
		{"workers 4", func(o Options) Options { o.Workers = 4; return o }},
	}
	compared := 0
	for _, sh := range shapes {
		all := sh.ds.Repo.Sets()
		var eligible []sets.Set
		for _, s := range all {
			if n := len(s.Elements); (sh.lo == 0 || n >= sh.lo) && (sh.hi == 0 || n <= sh.hi) {
				eligible = append(eligible, s)
			}
		}
		for i := range 150 {
			sh.queries = append(sh.queries, eligible[i*len(eligible)/150].Elements)
		}
		dead := make(map[string]bool)
		for sid := 0; sh.every > 0 && sid < len(all); sid += sh.every {
			dead[all[sid].Name] = true
		}
		source := func(repo *sets.Repository) index.NeighborSource {
			if sh.edit {
				return index.NewFuncIndex(repo.Vocabulary(), sim.EditSimilarity{})
			}
			return index.NewExact(repo.Vocabulary(), sh.ds.Model.Vector)
		}
		group := func(raw []sets.Set, opts Options) *Group {
			repo := sets.NewRepository(raw)
			return deadByName(NewEngine(repo, source(repo), opts), dead)
		}
		ref := group(all, base)
		want := make([]answer, len(sh.queries))
		verifications := 0
		for qi, q := range sh.queries {
			var st Stats
			want[qi], st = answerOf(t, ref, q)
			verifications += st.VerifyCalls
		}
		repo := ref.Engines[0].repo
		live := slices.DeleteFunc(repo.Sets(), func(s sets.Set) bool { return dead[s.Name] })
		rk := model.NewRanker(live, sourceSim{source(repo).(index.CompleteScorer)}, base.Alpha)
		for qi, q := range sh.queries {
			truth := modelTopK(t, rk, q, base.K)
			brute := make(answer, len(truth))
			for i, s := range truth {
				brute[i].name, brute[i].bits = s.Name, math.Float64bits(s.Score)
			}
			compared++
			if !slices.Equal(want[qi], brute) {
				t.Fatalf("%s, query %d: %v, brute force %v", sh.name, qi, want[qi], brute)
			}
		}
		check := func(label string, g *Group) {
			for qi, q := range sh.queries {
				compared++
				if got, _ := answerOf(t, g, q); !slices.Equal(got, want[qi]) {
					t.Fatalf("%s, %s, query %d: %v, want %v", sh.name, label, qi, got, want[qi])
				}
			}
		}
		for _, v := range variants {
			// Partitions are built into an engine; everything else is the
			// group's to set.
			opts := v.opts(base)
			if opts.Partitions != base.Partitions {
				check(v.name, group(all, opts))
				continue
			}
			check(v.name, &Group{Engines: ref.Engines, Opts: opts.withDefaults(), Dead: ref.Dead, LiveTokens: ref.LiveTokens})
		}
		shuffled := slices.Clone(all)
		rand.New(rand.NewSource(int64(len(all)))).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check("shuffled", group(shuffled, base))
		t.Logf("%s: %.2f verifications per search", sh.name, float64(verifications)/float64(len(sh.queries)))
	}
	t.Logf("%d comparisons", compared)
}

// TestPartitionRangesCoverAllSetsExactlyOnce: NewEngine splits the set IDs
// into contiguous ranges that follow one another from 0 to the repository's
// size, differ in size by at most one, and each index exactly their own
// sets; a partition count above the number of sets gives one set each.
func TestPartitionRangesCoverAllSetsExactlyOnce(t *testing.T) {
	raw := make([]sets.Set, 103)
	for i := range raw {
		raw[i] = sets.Set{Elements: []string{"e"}}
	}
	repo := sets.NewRepository(raw)
	for _, n := range []int{1, 2, 7, 10, 103, 500} {
		eng := NewEngine(repo, nil, Options{Partitions: n})
		if want := min(n, repo.Len()); len(eng.parts) != want {
			t.Fatalf("n=%d: %d partitions, want %d", n, len(eng.parts), want)
		}
		next, smallest, largest := int32(0), int32(repo.Len()), int32(0)
		for p, part := range eng.parts {
			if part.lo != next {
				t.Fatalf("n=%d: partition %d starts at %d, want %d", n, p, part.lo, next)
			}
			next = part.hi
			smallest, largest = min(smallest, part.hi-part.lo), max(largest, part.hi-part.lo)
			sids, _ := part.inv.Postings(0)
			if len(sids) != int(part.hi-part.lo) || sids[0] != part.lo || sids[len(sids)-1] != part.hi-1 {
				t.Fatalf("n=%d: partition %d of [%d, %d) indexes %v", n, p, part.lo, part.hi, sids)
			}
		}
		if next != int32(repo.Len()) {
			t.Fatalf("n=%d: the partitions end at %d, want %d", n, next, repo.Len())
		}
		if largest-smallest > 1 {
			t.Fatalf("n=%d: partition sizes unbalanced (min=%d max=%d)", n, smallest, largest)
		}
	}
}

// TestPartitionRangesZeroAndNegative: a partition count of zero or less means
// one partition holding every set, and a repository with no sets gets one
// empty partition and searches to no results.
func TestPartitionRangesZeroAndNegative(t *testing.T) {
	repo, model, query := randomInstance(3)
	for _, n := range []int{0, -3} {
		eng := NewEngine(repo, nil, Options{Partitions: n})
		if len(eng.parts) != 1 || eng.parts[0].lo != 0 || int(eng.parts[0].hi) != repo.Len() {
			t.Fatalf("Partitions=%d: %+v, want one partition of [0, %d)", n, eng.parts, repo.Len())
		}
	}
	empty := sets.NewRepository(nil)
	eng := NewEngine(empty, index.NewFuncIndex(empty.Vocabulary(), model), Options{Partitions: 3})
	if len(eng.parts) != 1 || eng.parts[0].hi != 0 {
		t.Fatalf("empty repository: %+v, want one empty partition", eng.parts)
	}
	if results, _ := eng.Search(query); len(results) != 0 {
		t.Fatalf("empty repository returned %v", results)
	}
}

// TestPartitionPostingsBalance logs, at koios-server's default of four
// partitions, how the postings a search's refiners meet spread over them:
// the postings per search and the largest refiner's load over the mean
// (max/mean; a parallel block waits for its largest refiner), on the four
// datagen shapes as generated and with their sets stored by ascending
// cardinality, where the range of the largest sets carries the most
// (DESIGN.md §6). It logs and does not hold a bound: run it with -v.
func TestPartitionPostingsBalance(t *testing.T) {
	const parts = 4
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.1)
		var queries [][]string
		for _, q := range datagen.NewBenchmark(ds, 17).Queries[:20] {
			queries = append(queries, q.Elements)
		}
		sorted := slices.Clone(ds.Repo.Sets())
		sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i].Elements) < len(sorted[j].Elements) })
		for _, in := range []struct {
			name string
			repo *sets.Repository
		}{{string(kind), ds.Repo}, {string(kind) + " by cardinality", sets.NewRepository(sorted)}} {
			eng := NewEngine(in.repo, index.NewExact(in.repo.Vocabulary(), ds.Model.Vector), Options{K: 10, Alpha: 0.8, Partitions: parts})
			per := make([]int, parts)
			eng.refinerHook = func(p int, r *partRefiner) { per[p] = r.stats.Postings }
			total, largest := 0, 0
			for _, q := range queries {
				eng.Search(q)
				for _, n := range per {
					total += n
				}
				largest += slices.Max(per)
			}
			if total == 0 {
				t.Fatalf("%s: the refiners met no postings", in.name)
			}
			t.Logf("%-24s postings/search %8.0f  largest refiner %8.0f  max/mean %.2f", in.name,
				float64(total)/float64(len(queries)), float64(largest)/float64(len(queries)), float64(largest)*parts/float64(total))
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
	target := repo.Sets()[0]
	results, _ := eng.Search(target.Elements)
	if len(results) != 1 {
		t.Fatal("no result for self query")
	}
	if results[0].Score < float64(len(target.Elements))-tol {
		t.Fatalf("self query top-1 score %v below vanilla overlap %d", results[0].Score, len(target.Elements))
	}
}

func TestSearchKLargerThanCandidates(t *testing.T) {
	repo, fn, query := randomInstance(13)
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	eng := NewEngine(repo, src, Options{K: 10_000, Alpha: 0.7, ExactScores: true})
	results, _ := eng.Search(query)
	truth := modelTopK(t, model.NewRanker(repo.Sets(), fn, 0.7), query, 10_000)
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
	query := repo.Elements(0)
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
