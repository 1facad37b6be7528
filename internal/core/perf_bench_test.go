package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/sets"
	"repro/internal/sim"
)

// The allocation-focused stage microbenchmarks behind the token-interning
// refactor: one per hot stage of Search, per dataset kind. The neighbor
// source is prewarmed through index.Cached so retrieval cost (which the
// paper excludes from its response-time protocol) does not drown the stage
// under measurement.

type perfFixture struct {
	eng    *Engine
	query  []string
	qids   []int32
	tuples []streamTuple
}

func newPerfFixture(b *testing.B, kind datagen.Kind) *perfFixture {
	b.Helper()
	ds := datagen.GenerateDefault(kind, 0.05)
	cached := index.NewCached(index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector))
	eng := NewEngine(ds.Repo, cached, Options{K: 10, Alpha: 0.8})
	query := sets.Dedup(datagen.NewBenchmark(ds, 1).Queries[0].Elements)
	cached.Prewarm([][]string{query}, eng.Options().Alpha)
	f := &perfFixture{eng: eng, query: query, qids: ds.Repo.TokenIDs(query)}
	f.tuples, _ = eng.materializeStream(query, f.qids, eng.getScratch())
	return f
}

func BenchmarkRefinePartition(b *testing.B) {
	for _, kind := range datagen.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			f := newPerfFixture(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				theta := &atomicMax{}
				var stats Stats
				f.eng.refinePartition(context.Background(), len(f.query), f.tuples, 0, theta, &stats, nil)
			}
		})
	}
}

// BenchmarkPostproc runs Algorithm 2 alone over what a real refinement hands
// it: the benchmark's search_small collection (datagen twitter at scale 1.0,
// exact vector source, k = 10), a query of median cardinality, eager
// refinement's survivors and edge cache. Each iteration starts from the same
// survivors, θlb and Llb; resetting them is outside the timer. With
// -benchmem a warm iteration allocates nothing: post-processing's lists and
// the verifier's graphs are the search's pooled scratch.
func BenchmarkPostproc(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8})
	byCard := append([]int(nil), eng.parts[0]...)
	sort.SliceStable(byCard, func(i, j int) bool { return eng.card[byCard[i]] < eng.card[byCard[j]] })
	query := sets.Dedup(ds.Repo.Set(byCard[len(byCard)/2]).Elements)

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
		llb := pqueue.NewTopK(eng.opts.K)
		for _, sv := range survivors {
			llb.Update(sv.setID, sv.lb)
		}
		theta.Update(llb.Bottom())
		stats = Stats{}
		b.StartTimer()
		if _, err := g.postproc(ctx, len(query), cache, survivors, llb, theta, &stats, base, sc); err != nil {
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
// is what a higher request rate turns into resident memory.
func BenchmarkEditSearch(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	src := index.NewDynamicFunc(ds.Repo.Dict(), sim.EditSimilarity{})
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: true})
	all := ds.Repo.Sets()
	queries := make([][]string, 150)
	for i := range queries {
		queries[i] = all[i*len(all)/len(queries)].Elements
	}
	eng.Search(queries[0]) // first use builds the source's lazy state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Search(queries[i%len(queries)])
	}
}
