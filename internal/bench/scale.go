package bench

import (
	"time"

	"repro/internal/datagen"
)

// Scale measures how a search's cost grows with the collection: every
// dataset kind's benchmark queries at the runner's scale and at four times
// it, under the runner's search options. Per search it prints the five
// stage timers of core.Stats in µs, the postings the walk met and those it
// skipped on the stream-wide bound, and the refinement state's footprint
// (MemCandBytes). It asserts nothing.
func (r *Runner) Scale() {
	r.header("Scale: per-search stages, postings and candidate memory at 1× and 4× the scale")
	r.printf("%-10s %6s %7s %8s %8s %8s %8s %8s %10s %10s %11s\n",
		"kind", "scale", "queries", "stream", "bound", "walk", "drain", "verify", "postings", "skipped", "cand-bytes")
	for _, kind := range datagen.Kinds() {
		for _, mult := range []float64{1, 4} {
			b := r.bundleFor(kind)
			if mult != 1 {
				b = r.newBundle(kind, mult*r.cfg.Scale)
			}
			eng := r.engineFor(b, nil)
			var stream, bound, walk, drain, verify time.Duration
			var postings, skipped, candBytes int64
			queries := b.bench.Queries
			for _, q := range queries {
				_, st := eng.Search(q.Elements)
				stream += st.StreamTime
				bound += st.BoundTime
				walk += st.WalkTime
				drain += st.DrainTime
				verify += st.VerifyTime
				postings += int64(st.Postings)
				skipped += int64(st.PostingsSkipped)
				candBytes += st.MemCandBytes
			}
			n := max(len(queries), 1)
			us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(n) }
			r.printf("%-10s %6.2f %7d %8.1f %8.1f %8.1f %8.1f %8.1f %10d %10d %11d\n",
				kind, mult*r.cfg.Scale, len(queries), us(stream), us(bound), us(walk), us(drain), us(verify),
				postings/int64(n), skipped/int64(n), candBytes/int64(n))
		}
	}
}
