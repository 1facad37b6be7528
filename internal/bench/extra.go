package bench

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/silkmoth"
	"repro/internal/sim"
)

// SilkMothComparison reproduces §VIII-B: Koios vs the SilkMoth framework on
// the Jaccard-of-3-grams element similarity over OpenData queries. Per the
// paper's protocol the fuzzy-search side receives the true θ*ₖ (here the
// minimum k-th score across the benchmark — an advantage Koios does not
// get).
func (r *Runner) SilkMothComparison() {
	r.header("§VIII-B: Koios vs SilkMoth (Jaccard on 3-grams)")
	b := r.bundleFor(datagen.OpenData)
	fn := sim.JaccardQGrams{Q: 3}
	// The paper precomputes the per-element similarity lists for this
	// comparison ("it takes 8 seconds to compute the token stream for the
	// benchmark") so timings reflect the search frameworks, not shared
	// retrieval. The source's memo reproduces that: every query element is
	// probed once below, and the cost is reported separately.
	src := index.NewFuncIndex(b.ds.Repo.Vocabulary(), fn)
	eng := core.NewEngine(b.ds.Repo, src, core.Options{
		K: r.cfg.K, Alpha: 0.8, Partitions: r.cfg.Partitions, Workers: r.cfg.Workers, ExactScores: true,
	})

	// Keep the comparison affordable: sample across intervals like the
	// paper's 54-query subset, and dirty the queries so θ*k is not
	// dominated by trivial self matches.
	queries := b.bench.Dirty(b.ds, 0.25, 98).Queries
	if len(queries) > 18 {
		step := len(queries) / 18
		var sampled []datagen.Query
		for i := 0; i < len(queries); i += step {
			sampled = append(sampled, queries[i])
		}
		queries = sampled
	}
	prewarmStart := time.Now()
	probed := make(map[string]bool)
	for _, q := range queries {
		for _, el := range q.Elements {
			if !probed[el] {
				probed[el] = true
				src.Neighbors(el, 0.8)
			}
		}
	}
	r.printf("shared token-stream precompute: %v (%d elements)\n",
		time.Since(prewarmStart).Round(time.Millisecond), len(probed))

	var koiosTime time.Duration
	thetaK := -1.0
	for _, q := range queries {
		t0 := time.Now()
		results, _ := eng.Search(q.Elements)
		koiosTime += time.Since(t0)
		if len(results) > 0 {
			if kth := results[len(results)-1].Score; thetaK < 0 || kth < thetaK {
				thetaK = kth
			}
		}
	}
	if thetaK < 0 {
		thetaK = 1
	}

	var synTime, semTime time.Duration
	var synVerified, semVerified, synCand, semCand []int
	for _, q := range queries {
		_, st := silkmoth.Search(b.ds.Repo, b.inv, src, q.Elements, silkmoth.Options{
			Theta: thetaK, Alpha: 0.8, K: r.cfg.K, Variant: silkmoth.Syntactic,
		})
		synTime += st.Response
		synVerified = append(synVerified, st.Verified)
		synCand = append(synCand, st.Candidates)

		_, st = silkmoth.Search(b.ds.Repo, b.inv, src, q.Elements, silkmoth.Options{
			Theta: thetaK, Alpha: 0.8, K: r.cfg.K, Variant: silkmoth.Semantic,
		})
		semTime += st.Response
		semVerified = append(semVerified, st.Verified)
		semCand = append(semCand, st.Candidates)
	}

	n := time.Duration(len(queries))
	r.printf("queries=%d  θ*k passed to SilkMoth=%.2f\n", len(queries), thetaK)
	r.printf("%-22s %14s %12s %12s\n", "System", "AvgResponse", "AvgCand", "AvgVerified")
	r.printf("%-22s %14v %12s %12s\n", "Koios", (koiosTime / n).Round(time.Microsecond), "-", "-")
	r.printf("%-22s %14v %12.0f %12.0f\n", "SilkMoth-syntactic", (synTime / n).Round(time.Microsecond), mean(synCand), mean(synVerified))
	r.printf("%-22s %14v %12.0f %12.0f\n", "SilkMoth-semantic", (semTime / n).Round(time.Microsecond), mean(semCand), mean(semVerified))
}

// Ablation quantifies each design choice called out in DESIGN.md §7: the
// full engine's per-query filter funnel, which counts what each filter
// decided, plus the greedy scorer's result quality gap and the IVF index
// recall trade.
func (r *Runner) Ablation() {
	r.header("Ablation: filters, greedy scoring, index choice (OpenData)")
	b := r.bundleFor(datagen.OpenData)
	queries := b.bench.Queries
	if len(queries) > 12 {
		queries = queries[:12]
	}

	var resp []time.Duration
	var cand, iub, settled, querySide, noEM, early, full, seedEM []int
	for _, st := range runKoios(r.engineFor(b, nil), queries) {
		resp = append(resp, st.ResponseTime())
		cand = append(cand, st.Candidates)
		iub = append(iub, st.IUBPruned)
		settled = append(settled, st.BoundSettled)
		querySide = append(querySide, st.IUBQueryPruned)
		noEM = append(noEM, st.NoEM)
		early = append(early, st.EMEarly)
		full = append(full, st.EMFull)
		seedEM = append(seedEM, st.SeedEM)
	}
	r.printf("queries=%d  avg response %v\n", len(queries), avgDuration(resp).Round(time.Microsecond))
	r.printf("funnel per query: candidates %.1f → iUB-pruned %.1f (bound-settled %.1f, query-side %.1f) → no-EM %.1f → EM-early %.1f → EM-full %.1f; seed-EM %.1f\n",
		mean(cand), mean(iub), mean(settled), mean(querySide), mean(noEM), mean(early), mean(full), mean(seedEM))

	// Greedy scoring: fraction of queries where the greedy top-1 disagrees
	// with the exact top-1 (Example 2's failure mode, measured).
	engExact := r.engineFor(b, func(o *core.Options) { o.ExactScores = true })
	disagree, total := 0, 0
	for _, q := range queries {
		exact, _ := engExact.Search(q.Elements)
		greedy := baseline.GreedyTopK(b.ds.Repo, b.inv, b.src, q.Elements, 1, r.cfg.Alpha)
		if len(exact) == 0 || len(greedy) == 0 {
			continue
		}
		total++
		if exact[0].SetID != greedy[0].SetID {
			disagree++
		}
	}
	r.printf("\nGreedy scorer: top-1 disagrees with exact on %d/%d queries\n", disagree, total)

	// Index ablation: exact vs IVF retrieval for the token stream.
	ivf := index.NewIVF(b.ds.Repo.Vocabulary(), b.ds.Model.Vector, 64, 4, 1)
	engIVF := core.NewEngine(b.ds.Repo, ivf, core.Options{
		K: r.cfg.K, Alpha: r.cfg.Alpha, Partitions: r.cfg.Partitions, Workers: r.cfg.Workers, ExactScores: true,
	})
	match, totalK := 0, 0
	var exactT, ivfT time.Duration
	for _, q := range queries {
		t0 := time.Now()
		re, _ := engExact.Search(q.Elements)
		exactT += time.Since(t0)
		t0 = time.Now()
		ri, _ := engIVF.Search(q.Elements)
		ivfT += time.Since(t0)
		inExact := map[int]bool{}
		for _, x := range re {
			inExact[x.SetID] = true
		}
		totalK += len(re)
		for _, x := range ri {
			if inExact[x.SetID] {
				match++
			}
		}
	}
	n := time.Duration(max(len(queries), 1))
	r.printf("Index ablation: exact avg %v vs IVF(4/64) avg %v, result recall %d/%d\n",
		(exactT / n).Round(time.Microsecond), (ivfT / n).Round(time.Microsecond), match, totalK)
}
