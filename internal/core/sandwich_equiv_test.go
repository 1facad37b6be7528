package core

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sim"
)

// This file is the equivalence suite for the verification sandwich
// (DESIGN.md §12): with the sandwich enabled the engine must return
// byte-identical results and identical filter accounting to a plain
// Hungarian-only run — the pre-solvers only ever decide candidates they can
// decide exactly. It also pins the engine-level equivalence of the kernel
// scan paths (admission filters + batched evaluation).

// searchSandwichBoth runs one query through a sandwich-enabled and a
// sandwich-disabled engine and fails on any observable divergence; it returns
// the sandwich run's stats.
func searchSandwichBoth(t *testing.T, on, off *Engine, query []string, label string) Stats {
	t.Helper()
	ores, ost := on.Search(query)
	fres, fst := off.Search(query)
	if fmt.Sprint(ores) != fmt.Sprint(fres) {
		t.Fatalf("%s: results diverge\nsandwich: %v\nplain:    %v", label, ores, fres)
	}
	if ost.Candidates != fst.Candidates || ost.IUBPruned != fst.IUBPruned ||
		ost.NoEM != fst.NoEM || ost.EMEarly != fst.EMEarly || ost.EMFull != fst.EMFull ||
		ost.FinalizeEM != fst.FinalizeEM || ost.StreamTuples != fst.StreamTuples {
		t.Fatalf("%s: stats diverge\nsandwich: %+v\nplain:    %+v", label, ost, fst)
	}
	if ost.VerifyCalls != fst.VerifyCalls {
		t.Fatalf("%s: VerifyCalls diverge: %d vs %d", label, ost.VerifyCalls, fst.VerifyCalls)
	}
	if fst.HungarianSkipped != 0 {
		t.Fatalf("%s: disabled sandwich reported %d skips", label, fst.HungarianSkipped)
	}
	return ost
}

// TestSandwichMatchesPlainAllKinds compares the two verification paths over
// every synthetic dataset kind, with and without ExactScores, and requires
// the shortcut to actually fire somewhere — a sandwich that never decides
// anything would pass equivalence vacuously.
func TestSandwichMatchesPlainAllKinds(t *testing.T) {
	totalSkipped := 0
	for _, kind := range datagen.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.05)
			src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
			queries := datagen.NewBenchmark(ds, 19).Queries
			if len(queries) > 8 {
				queries = queries[:8]
			}
			for _, withExact := range []bool{false, true} {
				on := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: withExact})
				off := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: withExact, DisableSandwich: true})
				for qi, q := range queries {
					st := searchSandwichBoth(t, on, off, q.Elements,
						fmt.Sprintf("%s exact=%v query %d", kind, withExact, qi))
					totalSkipped += st.HungarianSkipped
				}
			}
		})
	}
	if totalSkipped == 0 {
		t.Fatal("the sandwich never skipped a Hungarian run on any kind — it is untested and useless")
	}
}

// TestSandwichRandomInstances fuzzes the equivalence across random
// repositories, ks, and αs on the function-scan source.
func TestSandwichRandomInstances(t *testing.T) {
	skipped := 0
	for seed := int64(600); seed < 640; seed++ {
		repo, model, query := randomInstance(seed)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		opts := Options{K: 1 + int(seed%7), Alpha: 0.55 + 0.1*float64(seed%4)}
		offOpts := opts
		offOpts.DisableSandwich = true
		st := searchSandwichBoth(t, NewEngine(repo, src, opts), NewEngine(repo, src, offOpts),
			query, fmt.Sprintf("seed %d", seed))
		skipped += st.HungarianSkipped
	}
	if skipped == 0 {
		t.Fatal("no random instance exercised the shortcut")
	}
}

// hiddenKernelFunc hides the Batcher capability of a similarity
// function, forcing the index scan paths onto the plain per-pair loop.
type hiddenKernelFunc struct{ fn sim.Func }

func (p hiddenKernelFunc) Sim(a, b string) float64 { return p.fn.Sim(a, b) }
func (p hiddenKernelFunc) Name() string            { return p.fn.Name() }

// TestKernelScanEngineEquivalence: a full search through the kernel scan path
// (admission filters on and off) must be indistinguishable — results and all
// stats — from one through the plain per-pair scan.
func TestKernelScanEngineEquivalence(t *testing.T) {
	candidates := 0
	for seed := int64(700); seed < 720; seed++ {
		repo, _, query := randomInstance(seed)
		fn := sim.EditSimilarity{}
		kernelSrc := index.NewFuncIndex(repo.Vocabulary(), fn)
		unfilteredSrc := index.NewFuncIndex(repo.Vocabulary(), fn)
		unfilteredSrc.SetKernelFilters(false)
		plainSrc := index.NewFuncIndex(repo.Vocabulary(), hiddenKernelFunc{fn})
		opts := Options{K: 5, Alpha: 0.5}
		pres, pst := NewEngine(repo, plainSrc, opts).Search(query)
		for name, src := range map[string]*index.FuncIndex{"kernel": kernelSrc, "unfiltered": unfilteredSrc} {
			res, st := NewEngine(repo, src, opts).Search(query)
			if fmt.Sprint(res) != fmt.Sprint(pres) {
				t.Fatalf("seed %d %s: results diverge\ngot:  %v\nwant: %v", seed, name, res, pres)
			}
			if st.Candidates != pst.Candidates || st.StreamTuples != pst.StreamTuples ||
				st.EMEarly != pst.EMEarly || st.EMFull != pst.EMFull || st.NoEM != pst.NoEM {
				t.Fatalf("seed %d %s: stats diverge\ngot:  %+v\nwant: %+v", seed, name, st, pst)
			}
		}
		candidates += pst.Candidates
	}
	if candidates == 0 {
		t.Fatal("no candidates on any seed — the kernel path went unexercised")
	}
}

// BenchmarkVerifyLarge measures whole searches in the regime where
// verification carries the most weight: the opendata shape at scale 0.1,
// every set of 100–400 elements as a query (the benchmark's search_large
// workload), with the sandwich on and off.
func BenchmarkVerifyLarge(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.1)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	var queries [][]string
	for _, s := range ds.Repo.Sets() {
		if n := len(s.Elements); n >= 100 && n < 400 {
			queries = append(queries, s.Elements)
		}
	}
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"sandwich", false}, {"solver-only", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, DisableSandwich: cfg.disable})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Search(queries[i%len(queries)])
			}
		})
	}
}
