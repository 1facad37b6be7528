package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
)

// LazyStream checks the lazy token stream's cut-off (DESIGN.md §10) against
// the same search with the cut disabled on every dataset kind: per-kind cut
// rates and stream tuples consumed vs. retrieved — while asserting
// byte-identical results query for query. Returns an error (nonzero exit
// in koios-bench) on any divergence or if the cut-off never fires at all,
// so CI can run it as the lazy-stream smoke.
func (r *Runner) LazyStream() error {
	r.header("Lazy token stream: θlb cut-off vs whole stream")
	r.printf("%-10s %8s %6s %12s %12s %12s\n",
		"kind", "queries", "cuts", "lazy-tuples", "eager-tuple", "retrieved")
	totalCuts := 0
	for _, kind := range datagen.Kinds() {
		b := r.bundleFor(kind)
		lazyEng := r.engineFor(b, nil)
		eagerEng := r.engineFor(b, func(o *core.Options) { o.DisableLazy = true })
		var cuts, lazyTuples, eagerTuples, retrieved int
		for qi, q := range b.bench.Queries {
			lres, lst := lazyEng.Search(q.Elements)
			eres, est := eagerEng.Search(q.Elements)
			if fmt.Sprint(lres) != fmt.Sprint(eres) {
				return fmt.Errorf("lazystream: %s query %d: lazy results diverge from eager\nlazy:  %v\neager: %v",
					kind, qi, lres, eres)
			}
			if lst.StreamTuples > est.StreamTuples {
				return fmt.Errorf("lazystream: %s query %d: lazy consumed more tuples (%d) than eager (%d)",
					kind, qi, lst.StreamTuples, est.StreamTuples)
			}
			if lst.StreamCut {
				cuts++
			}
			lazyTuples += lst.StreamTuples
			eagerTuples += est.StreamTuples
			retrieved += lst.StreamRetrieved
		}
		totalCuts += cuts
		r.printf("%-10s %8d %6d %12d %12d %12d\n",
			kind, len(b.bench.Queries), cuts, lazyTuples, eagerTuples, retrieved)
		if cuts > 0 && lazyTuples >= eagerTuples {
			return fmt.Errorf("lazystream: %s: cuts fired but consumed %d tuples vs eager %d — no savings",
				kind, lazyTuples, eagerTuples)
		}
	}
	if totalCuts == 0 {
		return fmt.Errorf("lazystream: the cut-off never fired on any kind")
	}
	r.printf("lazy ≡ eager: ok (%d cut queries across kinds)\n", totalCuts)
	return nil
}
