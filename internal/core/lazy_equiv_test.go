package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
)

// This file is the equivalence suite for the lazy token stream (DESIGN.md
// §10): the cut-off pipeline must return byte-identical results — same
// sets, same scores, same Verified flags — to the eager pipeline on every
// dataset kind and across randomized cut points. The cut reconstruction
// also reproduces the eager post-processing exactly (same survivors, same
// bounds, same final θlb), so the post-processing filter counters must
// match too; only the refinement-side counters (Candidates, IUBPruned,
// StreamTuples) legitimately shrink.

// searchBoth runs the same query through a lazy and an eager engine and
// fails the test on any observable divergence.
func searchBoth(t *testing.T, lazyEng, eagerEng *Engine, query []string, label string) (Stats, Stats) {
	t.Helper()
	lres, lst := lazyEng.Search(query)
	eres, est := eagerEng.Search(query)
	if fmt.Sprint(lres) != fmt.Sprint(eres) {
		t.Fatalf("%s: results diverge\nlazy:  %v\neager: %v", label, lres, eres)
	}
	if lst.NoEM != est.NoEM || lst.EMFull != est.EMFull || lst.EMEarly != est.EMEarly {
		t.Fatalf("%s: post-processing stats diverge\nlazy:  NoEM=%d EMFull=%d EMEarly=%d\neager: NoEM=%d EMFull=%d EMEarly=%d",
			label, lst.NoEM, lst.EMFull, lst.EMEarly, est.NoEM, est.EMFull, est.EMEarly)
	}
	if lst.StreamTuples > est.StreamTuples {
		t.Fatalf("%s: lazy consumed more tuples (%d) than eager (%d)", label, lst.StreamTuples, est.StreamTuples)
	}
	if !lst.StreamCut && lst.StreamTuples != est.StreamTuples {
		t.Fatalf("%s: no cut but consumption differs: lazy %d vs eager %d", label, lst.StreamTuples, est.StreamTuples)
	}
	return lst, est
}

// TestLazyMatchesEagerAllKinds compares the two pipelines over every
// synthetic dataset kind, with and without ExactScores, and requires that
// the cut-off actually fires somewhere — a lazy pipeline that never cuts
// would pass equivalence vacuously.
func TestLazyMatchesEagerAllKinds(t *testing.T) {
	totalCuts := 0
	for _, kind := range datagen.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.05)
			src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
			queries := datagen.NewBenchmark(ds, 17).Queries
			if len(queries) > 10 {
				queries = queries[:10]
			}
			for _, withExact := range []bool{false, true} {
				lazyEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: withExact})
				eagerEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: withExact, DisableLazy: true})
				for qi, q := range queries {
					lst, est := searchBoth(t, lazyEng, eagerEng, q.Elements,
						fmt.Sprintf("%s exact=%v query %d", kind, withExact, qi))
					if lst.StreamCut {
						totalCuts++
						if lst.StreamCutLevel <= 0 {
							t.Fatalf("query %d: cut without a level", qi)
						}
						if lst.StreamTuples >= est.StreamTuples {
							t.Fatalf("query %d: cut fired but no tuple savings (%d vs %d)",
								qi, lst.StreamTuples, est.StreamTuples)
						}
					}
				}
			}
		})
	}
	if totalCuts == 0 {
		t.Fatal("the cut-off never fired on any kind — the lazy pipeline is untested and useless")
	}
}

// TestLazyCutRandomPrefixes fuzzes the cut point: randomized LazyBlock
// sizes move the epoch barriers, so the cut condition is evaluated (and the
// cut taken) at randomized stream prefixes — the earliest barrier at which
// it holds. Every cut point must reconstruct the identical eager outcome.
// Random instances vary k, α, and the out-of-vocabulary rate.
func TestLazyCutRandomPrefixes(t *testing.T) {
	cuts := 0
	for seed := int64(500); seed < 560; seed++ {
		repo, model, query := randomInstance(seed)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		rng := rand.New(rand.NewSource(seed * 7))
		opts := Options{
			K:         1 + int(seed%7),
			Alpha:     0.55 + 0.1*float64(seed%4),
			LazyBlock: 1 + rng.Intn(64),
		}
		eagerOpts := opts
		eagerOpts.DisableLazy = true
		lst, _ := searchBoth(t, NewEngine(repo, src, opts), NewEngine(repo, src, eagerOpts),
			query, fmt.Sprintf("seed %d block %d", seed, opts.LazyBlock))
		if lst.StreamCut {
			cuts++
		}
	}
	if cuts == 0 {
		t.Fatal("no random instance cut the stream — fuzz is not exercising the reconstruction")
	}
}

// TestLazyApproximateSourceEquivalence pins the cut-off's contract for
// approximate sources: a cut search completes its edge cache by draining
// the stream, which re-emits the IVF index's own retrieval (recomputing
// pairs would invent edges the index never retrieved) and therefore
// reproduces that source's eager results byte for byte. The configuration
// is chosen so cuts actually fire.
func TestLazyApproximateSourceEquivalence(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.03)
	src := index.NewIVF(ds.Repo.Vocabulary(), ds.Model.Vector, 8, 4, 1)
	lazyEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.6})
	eagerEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.6, DisableLazy: true})
	cuts := 0
	for qi, q := range datagen.NewBenchmark(ds, 17).Queries {
		lres, lst := lazyEng.Search(q.Elements)
		eres, _ := eagerEng.Search(q.Elements)
		if fmt.Sprint(lres) != fmt.Sprint(eres) {
			t.Fatalf("query %d: lazy diverges from eager over the approximate source\nlazy:  %v\neager: %v",
				qi, lres, eres)
		}
		if lst.StreamCut {
			cuts++
		}
	}
	if cuts == 0 {
		t.Fatal("no cut fired over the approximate source — drain completion is untested")
	}
}

// TestLazyMultiPartition runs the cut-off with several partitions sharing
// the global θlb: results must match the eager pipeline exactly (the pool
// reconstruction rebuilds θlb across all partitions before filtering).
func TestLazyMultiPartition(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.05)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	queries := datagen.NewBenchmark(ds, 17).Queries[:8]
	cuts := 0
	for parts := 1; parts <= 4; parts += 3 {
		lazyEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, Partitions: parts})
		eagerEng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, Partitions: parts, DisableLazy: true})
		for qi, q := range queries {
			lres, lst := lazyEng.Search(q.Elements)
			eres, _ := eagerEng.Search(q.Elements)
			if fmt.Sprint(lres) != fmt.Sprint(eres) {
				t.Fatalf("parts=%d query %d: results diverge\nlazy:  %v\neager: %v", parts, qi, lres, eres)
			}
			if lst.StreamCut {
				cuts++
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no cut fired across partition counts")
	}
}
