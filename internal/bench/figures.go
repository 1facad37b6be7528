package bench

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
)

// FigureTime prints response time vs query cardinality for Koios and the
// baseline (paper Fig. 5a / 6a), including baseline timeout counts.
func (r *Runner) FigureTime(kind datagen.Kind, title string) {
	r.header(title)
	b := r.bundleFor(kind)
	eng := r.engineFor(b, nil)
	groups := b.bench.ByInterval()
	r.printf("%-12s %14s %14s %10s\n", "QueryCard.", "Koios", "Baseline", "B.Timeout")
	for _, iv := range sortedIntervals(groups) {
		queries := groups[iv]
		var kt []time.Duration
		for _, st := range runKoios(eng, queries) {
			kt = append(kt, st.ResponseTime())
		}
		bstats, timeouts := r.runBaseline(b, queries, kind == datagen.WDC)
		var bt []time.Duration
		for _, st := range bstats {
			bt = append(bt, st.Response)
		}
		r.printf("%-12s %14v %14v %10d\n",
			intervalLabel(b.bench, iv),
			avgDuration(kt).Round(time.Microsecond),
			avgDuration(bt).Round(time.Microsecond),
			timeouts)
	}
}

// FigurePhases prints the refinement/post-processing share of response time
// per interval (paper Fig. 5b,c / 6b,c).
func (r *Runner) FigurePhases(kind datagen.Kind, title string) {
	r.header(title)
	b := r.bundleFor(kind)
	eng := r.engineFor(b, nil)
	groups := b.bench.ByInterval()
	r.printf("%-12s %12s %12s\n", "QueryCard.", "Refine%", "Postproc%")
	for _, iv := range sortedIntervals(groups) {
		var rf, pp []float64
		for _, st := range runKoios(eng, groups[iv]) {
			total := st.ResponseTime()
			if total <= 0 {
				continue
			}
			rf = append(rf, 100*float64(st.RefineTime)/float64(total))
			pp = append(pp, 100*float64(st.PostprocTime)/float64(total))
		}
		r.printf("%-12s %11.1f%% %11.1f%%\n", intervalLabel(b.bench, iv), mean(rf), mean(pp))
	}
}

// FigureMemory prints the average data-structure footprint per interval for
// Koios and the baseline (paper Fig. 5d / 6d).
func (r *Runner) FigureMemory(kind datagen.Kind, title string) {
	r.header(title)
	b := r.bundleFor(kind)
	eng := r.engineFor(b, nil)
	groups := b.bench.ByInterval()
	r.printf("%-12s %14s %14s\n", "QueryCard.", "Koios(MB)", "Baseline(MB)")
	for _, iv := range sortedIntervals(groups) {
		queries := groups[iv]
		var km []float64
		for _, st := range runKoios(eng, queries) {
			km = append(km, mb(st.TotalBytes()))
		}
		bstats, _ := r.runBaseline(b, queries, kind == datagen.WDC)
		var bm []float64
		for _, st := range bstats {
			bm = append(bm, mb(st.MemBytes))
		}
		r.printf("%-12s %14.2f %14.2f\n", intervalLabel(b.bench, iv), mean(km), mean(bm))
	}
}

// figure7Queries samples the parameter-analysis benchmark: queries drawn at
// random across OpenData intervals (§VIII-F).
func (r *Runner) figure7Queries() (*bundle, []datagen.Query) {
	b := r.bundleFor(datagen.OpenData)
	return b, b.bench.Queries
}

// Figure7Partitions prints response time and phase share vs partition count
// (paper Fig. 7a).
func (r *Runner) Figure7Partitions() {
	r.header("Fig. 7a: time vs number of partitions")
	b, queries := r.figure7Queries()
	r.printf("%-12s %14s %12s %12s\n", "Partitions", "Response", "Refine%", "Postproc%")
	for _, parts := range []int{1, 2, 5, 10, 20} {
		eng := r.engineFor(b, func(o *core.Options) { o.Partitions = parts })
		var resp []time.Duration
		var rf, pp []float64
		for _, st := range runKoios(eng, queries) {
			resp = append(resp, st.ResponseTime())
			if t := st.ResponseTime(); t > 0 {
				rf = append(rf, 100*float64(st.RefineTime)/float64(t))
				pp = append(pp, 100*float64(st.PostprocTime)/float64(t))
			}
		}
		r.printf("%-12d %14v %11.1f%% %11.1f%%\n",
			parts, avgDuration(resp).Round(time.Microsecond), mean(rf), mean(pp))
	}
}

// Figure7Alpha prints response time vs the element similarity threshold α
// (paper Fig. 7b).
func (r *Runner) Figure7Alpha() {
	r.header("Fig. 7b: time vs element similarity threshold α")
	b, queries := r.figure7Queries()
	r.printf("%-8s %14s %12s %12s\n", "Alpha", "Response", "Refine%", "Postproc%")
	for _, alpha := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		eng := r.engineFor(b, func(o *core.Options) { o.Alpha = alpha })
		var resp []time.Duration
		var rf, pp []float64
		for _, st := range runKoios(eng, queries) {
			resp = append(resp, st.ResponseTime())
			if t := st.ResponseTime(); t > 0 {
				rf = append(rf, 100*float64(st.RefineTime)/float64(t))
				pp = append(pp, 100*float64(st.PostprocTime)/float64(t))
			}
		}
		r.printf("%-8.2f %14v %11.1f%% %11.1f%%\n",
			alpha, avgDuration(resp).Round(time.Microsecond), mean(rf), mean(pp))
	}
}

// Figure7K prints response time vs the result size k (paper Fig. 7c).
func (r *Runner) Figure7K() {
	r.header("Fig. 7c: time vs result size k")
	b, queries := r.figure7Queries()
	r.printf("%-8s %14s %12s %12s\n", "k", "Response", "Refine%", "Postproc%")
	for _, k := range []int{1, 5, 10, 25, 50} {
		eng := r.engineFor(b, func(o *core.Options) { o.K = k })
		var resp []time.Duration
		var rf, pp []float64
		for _, st := range runKoios(eng, queries) {
			resp = append(resp, st.ResponseTime())
			if t := st.ResponseTime(); t > 0 {
				rf = append(rf, 100*float64(st.RefineTime)/float64(t))
				pp = append(pp, 100*float64(st.PostprocTime)/float64(t))
			}
		}
		r.printf("%-8d %14v %11.1f%% %11.1f%%\n",
			k, avgDuration(resp).Round(time.Microsecond), mean(rf), mean(pp))
	}
}

// Figure7MemAlpha prints the memory footprint vs α (paper Fig. 7d).
func (r *Runner) Figure7MemAlpha() {
	r.header("Fig. 7d: memory footprint vs α")
	b, queries := r.figure7Queries()
	r.printf("%-8s %14s %14s %14s %14s\n", "Alpha", "Total(MB)", "Stream(MB)", "Refine(MB)", "Postproc(MB)")
	for _, alpha := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		eng := r.engineFor(b, func(o *core.Options) { o.Alpha = alpha })
		var total, stream, cand, post []float64
		for _, st := range runKoios(eng, queries) {
			total = append(total, mb(st.TotalBytes()))
			stream = append(stream, mb(st.MemStreamBytes))
			cand = append(cand, mb(st.MemCandBytes))
			post = append(post, mb(st.MemPostprocBytes))
		}
		r.printf("%-8.2f %14.2f %14.2f %14.2f %14.2f\n",
			alpha, mean(total), mean(stream), mean(cand), mean(post))
	}
}

// Figure8Quality compares vanilla and semantic top-k results (paper
// Fig. 8): the k-th set's syntactic and semantic scores under both
// rankings, and the size of the result intersection. Queries are dirtied
// (25% of elements replaced by same-cluster synonym/typo siblings) to model
// the paper's scenario of querying across differently-standardized data —
// with clean copies of corpus sets as queries, vanilla overlap would
// trivially tie semantic overlap.
func (r *Runner) Figure8Quality() {
	r.header("Fig. 8: vanilla vs semantic overlap result quality (OpenData, dirtied queries)")
	b := r.bundleFor(datagen.OpenData)
	eng := r.engineFor(b, func(o *core.Options) { o.ExactScores = true })
	k := r.cfg.K
	groups := b.bench.Dirty(b.ds, 0.25, 99).ByInterval()
	r.printf("%-12s %12s %12s %12s %12s %12s\n",
		"QueryCard.", "Van@k(van)", "Van@k(sem)", "Sem@k(van)", "Sem@k(sem)", "Overlap/k")
	for _, iv := range sortedIntervals(groups) {
		var vanVan, vanSem, semVan, semSem, inter []float64
		for _, q := range groups[iv] {
			semantic, _ := eng.Search(q.Elements)
			vanilla := baseline.VanillaTopK(b.ds.Repo, b.inv, q.Elements, k)
			if len(semantic) == 0 || len(vanilla) == 0 {
				continue
			}
			// k-th (last) entries under each ranking.
			sLast := semantic[len(semantic)-1]
			vLast := vanilla[len(vanilla)-1]
			// Syntactic score of the k-th set of each list.
			vanVan = append(vanVan, vLast.Score)
			vanSem = append(vanSem, float64(vanillaOverlap(q.Elements, b, sLast.SetID)))
			// Semantic score of the k-th set of each list.
			semSem = append(semSem, sLast.Score)
			semVan = append(semVan, baseline.ExactSO(b.ds.Repo, vLast.SetID, q.Elements, b.src, r.cfg.Alpha))
			// Result intersection.
			inSem := map[int]bool{}
			for _, s := range semantic {
				inSem[s.SetID] = true
			}
			common := 0
			for _, v := range vanilla {
				if inSem[v.SetID] {
					common++
				}
			}
			inter = append(inter, float64(common)/float64(len(semantic)))
		}
		r.printf("%-12s %12.2f %12.2f %12.2f %12.2f %12.2f\n",
			intervalLabel(b.bench, iv),
			mean(vanVan), mean(vanSem), mean(semVan), mean(semSem), mean(inter))
	}
	r.printf("Van@k = vanilla overlap of the k-th set, Sem@k = semantic overlap of the k-th set,\n")
	r.printf("under the (van)illa and (sem)antic rankings; Overlap/k = result intersection ratio.\n")
}

func vanillaOverlap(query []string, b *bundle, setID int) int {
	in := make(map[string]bool, len(query))
	for _, q := range query {
		in[q] = true
	}
	n := 0
	for _, e := range b.ds.Repo.Elements(setID) {
		if in[e] {
			n++
		}
	}
	return n
}
