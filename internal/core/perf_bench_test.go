package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

// byCardinality returns the engine's set IDs in ascending cardinality.
func byCardinality(eng *Engine) []int {
	ids := make([]int, eng.repo.Len())
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool { return eng.card[ids[i]] < eng.card[ids[j]] })
	return ids
}

// refineCase is one query of BenchmarkRefinePartition: its edge cache and
// its stream as the search sorts it, on a scratch of its own.
type refineCase struct {
	qids   []int32
	cache  *edgeCache
	tuples []streamTuple
}

// BenchmarkRefinePartition times refinement alone — the stream-wide bound
// pass, the θlb seed and its sets taken out of the walk (markSeeds, as a
// search does), the postings walk and the drain — in search_small's
// serving shape: datagen twitter at scale 1.0, exact vector source, k = 10,
// one partition, over 60 queries stratified by cardinality (the middle set
// of each sixtieth of the corpus sorted by cardinality). Edge caches are
// built and streams sorted before the timer; an iteration refines one
// query on the pooled arena, as a search does. Besides ns/op it reports the
// postings the walk met and those it skipped per op (DESIGN.md §2), and
// ns/posting: ns/op per posting met, so it covers the bound pass, the seed,
// the walk and the drain, not the walk alone.
func BenchmarkRefinePartition(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8})
	byCard := byCardinality(eng)
	cases := make([]refineCase, 60)
	for i := range cases {
		c := &cases[i]
		query := sets.Dedup(ds.Repo.Elements(byCard[(2*i+1)*len(byCard)/(2*len(cases))]))
		c.qids = ds.Repo.TokenIDs(query)
		c.tuples, c.cache, _ = eng.openStream(query, c.qids, nil, eng.opts.Alpha, nil, eng.getScratch())
	}
	ctx := context.Background()
	g, base := eng.group(), []int{0, ds.Repo.Len()}
	sc := eng.getScratch()
	var rs refinerScratch
	var vs verifyScratch
	walked, skipped := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		qN := len(c.qids)
		theta, stats := &atomicMax{}, Stats{}
		sc.refine.reset(ds.Repo.Len(), (qN+63)/64, eng.cWords())
		share := sc.refine.carve(eng)
		r := eng.newPartRefiner(eng.opts.K, qN, 0, theta, &stats, nil, &share, &rs)
		r.addBounds(c.tuples)
		theta.Update(g.seedTheta(c.cache, sc.refine.bound, qN, base, sc, &vs, &stats))
		r.markSeeds(sc.seedScores, 0)
		r.consume(ctx, c.tuples)
		r.drain()
		walked += stats.Postings
		skipped += stats.PostingsSkipped
	}
	b.ReportMetric(float64(walked)/float64(b.N), "postings/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(walked), "ns/posting")
}

// BenchmarkPostproc runs Algorithm 2 alone over what a real refinement hands
// it: the benchmark's search_small collection (datagen twitter at scale 1.0,
// exact vector source, k = 10), a query of median cardinality, eager
// refinement's survivors and edge cache, without a θlb seed. Each iteration
// starts from the same survivors and θlb; resetting them is outside the
// timer, and post-processing builds its Llb from the survivors. With
// -benchmem a warm iteration allocates nothing: post-processing's lists and
// the verifier's graphs are the search's pooled scratch.
func BenchmarkPostproc(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8})
	byCard := byCardinality(eng)
	query := sets.Dedup(ds.Repo.Elements(byCard[len(byCard)/2]))

	ctx := context.Background()
	sc := eng.getScratch()
	tuples, cache := eng.materializeStream(query, ds.Repo.TokenIDs(query), sc)
	theta, stats := &atomicMax{}, Stats{}
	refined := eng.refinePartition(ctx, len(query), tuples, 0, theta, &stats, nil)
	refinedTheta := theta.Load()
	g := eng.group()
	base := []int{0, ds.Repo.Len()}
	sc.verify = regrown(sc.verify, eng.opts.Workers)
	survivors := make([]survivor, len(refined))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(survivors, refined)
		theta.bits.Store(0)
		theta.Update(refinedTheta)
		stats = Stats{}
		b.StartTimer()
		if _, err := g.postproc(ctx, len(query), cache, survivors, theta, &stats, base, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(refined)), "survivors")
	b.ReportMetric(float64(stats.VerifyCalls), "verifications")
}

// BenchmarkEditSearch runs whole searches the way the benchmark's
// search_edit workload does — datagen twitter at scale 1.0, edit similarity
// through a DynamicFunc over the repository's dictionary, serving options —
// cycling through 150 of the corpus's sets as queries. With -benchmem its
// B/op is the garbage one search leaves behind, which at a fixed heap goal
// is what a higher request rate turns into resident memory; a warm search
// allocates only its answer (DESIGN.md §3).
func BenchmarkEditSearch(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	benchServing(b, ds, index.NewDynamicFunc(dictOf(b, ds.Repo), sim.EditSimilarity{}))
}

// BenchmarkVectorSearch is BenchmarkEditSearch in search_small's shape: the
// same collection, queries and options over the embedding model's vectors
// through a DynamicExact, the source the benchmark's vector workloads serve.
func BenchmarkVectorSearch(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	benchServing(b, ds, index.NewDynamicExact(dictOf(b, ds.Repo), ds.Model.Vector))
}

// benchServing times whole searches over src under serving options,
// cycling through 150 of the corpus's sets as queries.
func benchServing(b *testing.B, ds *datagen.Dataset, src index.NeighborSource) {
	all := ds.Repo.Sets()
	queries := make([][]string, 150)
	for i := range queries {
		queries[i] = all[i*len(all)/len(queries)].Elements
	}
	benchSearches(b, servingEngine(ds, src, queries[0]), queries)
}

// servingEngine is an engine over src under the benchmark's serving
// options (k = 10, α = 0.8, exact scores), after one search of query: first
// use builds the source's lazy state.
func servingEngine(ds *datagen.Dataset, src index.NeighborSource, query []string) *Engine {
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: true})
	eng.Search(query)
	return eng
}

// benchSearches runs b.N searches of eng cycling through queries, and
// reports each stage timer of Stats as ns/op, so a change can name the
// stage that moved.
func benchSearches(b *testing.B, eng *Engine, queries [][]string) {
	var total Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := eng.Search(queries[i%len(queries)])
		total.add(&st)
	}
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{
		{"stream", total.StreamTime}, {"bound", total.BoundTime}, {"walk", total.WalkTime},
		{"drain", total.DrainTime}, {"verify", total.VerifyTime},
	} {
		b.ReportMetric(float64(stage.d.Nanoseconds())/float64(b.N), stage.name+"-ns/op")
	}
}

// BenchmarkVerifyLarge measures whole searches in the regime where
// verification carries the most weight, the way the benchmark's
// search_large workload serves them: the opendata shape at scale 0.1, every
// set of 100–400 elements as a query, over a DynamicExact on the
// repository's dictionary under serving options.
func BenchmarkVerifyLarge(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.1)
	var queries [][]string
	for _, s := range ds.Repo.Sets() {
		if n := len(s.Elements); n >= 100 && n < 400 {
			queries = append(queries, s.Elements)
		}
	}
	src := index.NewDynamicExact(dictOf(b, ds.Repo), ds.Model.Vector)
	benchSearches(b, servingEngine(ds, src, queries[0]), queries)
}
