package bench

import (
	"time"

	"repro/internal/datagen"
)

// Table1 prints the dataset characteristics (paper Table I).
func (r *Runner) Table1() {
	r.header("Table I: characteristics of datasets")
	r.printf("%-10s %10s %10s %10s %12s\n", "Dataset", "#Sets", "MaxSize", "AvgSize", "#UniqElems")
	for _, kind := range datagen.Kinds() {
		st := r.bundleFor(kind).ds.Stats()
		r.printf("%-10s %10d %10d %10.1f %12d\n", kind, st.NumSets, st.MaxSize, st.AvgSize, st.UniqueElems)
	}
}

// Table2 prints the average percentage of sets pruned per filter (paper
// Table II): iUB relative to all candidates; EM-Early-Terminated and No-EM
// relative to the sets that reach post-processing ("the reported
// percentages refer to the sets that are not filtered in the refinement
// phase", §VIII-C).
func (r *Runner) Table2() {
	r.header("Table II: average percentage of sets pruned using filters")
	r.printf("%-10s %14s %22s %10s\n", "Dataset", "iUB-Filter", "EM-Early-Terminated", "No-EM")
	for _, kind := range datagen.Kinds() {
		b := r.bundleFor(kind)
		eng := r.engineFor(b, nil)
		var iub, early, noem []float64
		for _, st := range runKoios(eng, b.bench.Queries) {
			if st.Candidates == 0 {
				continue
			}
			iub = append(iub, 100*float64(st.IUBPruned)/float64(st.Candidates))
			if surv := st.Candidates - st.IUBPruned; surv > 0 {
				early = append(early, 100*float64(st.EMEarly)/float64(surv))
				noem = append(noem, 100*float64(st.NoEM)/float64(surv))
			}
		}
		r.printf("%-10s %13.1f%% %21.1f%% %9.1f%%\n", kind, mean(iub), mean(early), mean(noem))
	}
}

// Table3 prints average response time and memory for Koios and the baseline
// (paper Table III).
func (r *Runner) Table3() {
	r.header("Table III: average response time and memory footprint")
	r.printf("%-10s | %12s %12s %12s %10s | %12s %10s %9s\n",
		"", "Koios", "", "", "", "Baseline", "", "")
	r.printf("%-10s | %12s %12s %12s %10s | %12s %10s %9s\n",
		"Dataset", "Refine", "Postproc", "Response", "Mem(MB)", "Response", "Mem(MB)", "Timeouts")
	for _, kind := range datagen.Kinds() {
		b := r.bundleFor(kind)
		eng := r.engineFor(b, nil)
		var refine, post, resp []time.Duration
		var mem []float64
		for _, st := range runKoios(eng, b.bench.Queries) {
			refine = append(refine, st.RefineTime)
			post = append(post, st.PostprocTime)
			resp = append(resp, st.ResponseTime())
			mem = append(mem, mb(st.TotalBytes()))
		}
		bstats, timeouts := r.runBaseline(b, b.bench.Queries, kind == datagen.WDC) // paper: Baseline+ for WDC
		var bresp []time.Duration
		var bmem []float64
		for _, st := range bstats {
			bresp = append(bresp, st.Response)
			bmem = append(bmem, mb(st.MemBytes))
		}
		r.printf("%-10s | %12v %12v %12v %10.1f | %12v %10.1f %9d\n",
			kind,
			avgDuration(refine).Round(time.Microsecond),
			avgDuration(post).Round(time.Microsecond),
			avgDuration(resp).Round(time.Microsecond),
			mean(mem),
			avgDuration(bresp).Round(time.Microsecond),
			mean(bmem),
			timeouts,
		)
	}
}

// TableIntervals prints the per-cardinality-interval filter counts (paper
// Tables IV and V): candidates, iUB-filtered and the part of those the
// bound's query side decided, No-EM, EM-early-terminated, and completed
// exact matchings, averaged per query.
func (r *Runner) TableIntervals(kind datagen.Kind, title string) {
	r.header(title + ": #sets pruned by filters")
	b := r.bundleFor(kind)
	eng := r.engineFor(b, nil)
	groups := b.bench.ByInterval()
	r.printf("%-12s %10s %14s %10s %8s %10s %8s\n",
		"QueryCard.", "Candidates", "iUB-Filtered", "iUB-Query", "No-EM", "EM-Early", "EM")
	for _, iv := range sortedIntervals(groups) {
		queries := groups[iv]
		var cand, iub, iubQuery, noem, early, em []int
		for _, st := range runKoios(eng, queries) {
			cand = append(cand, st.Candidates)
			iub = append(iub, st.IUBPruned)
			iubQuery = append(iubQuery, st.IUBQueryPruned)
			noem = append(noem, st.NoEM)
			early = append(early, st.EMEarly)
			em = append(em, st.EMFull)
		}
		r.printf("%-12s %10.0f %14.0f %10.0f %8.0f %10.0f %8.0f\n",
			intervalLabel(b.bench, iv), mean(cand), mean(iub), mean(iubQuery), mean(noem), mean(early), mean(em))
	}
}
