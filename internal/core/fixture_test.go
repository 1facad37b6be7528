package core

import (
	"context"

	"repro/internal/index"
)

// materializeStream drains the whole token stream for query into annotated
// tuples and builds the edge cache over them — what a search's pump and
// buildEdgeCache produce when no cut is taken, in one call, for the tests
// and benchmarks that drive a refiner or the post-processing phase directly.
// The returned cache aliases sc.offsets.
func (e *Engine) materializeStream(query []string, qids []int32, sc *queryScratch) ([]streamTuple, *edgeCache) {
	st := index.NewStreamInterned(query, qids, e.src, e.opts.Alpha)
	var tuples []streamTuple
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		tuples = append(tuples, e.noteTuple(tup, sc, nil))
	}
	return tuples, e.buildEdgeCache(tuples, sc)
}

// refinePartition runs Algorithm 1 over partition p against a fully
// materialized tuple slice: one refiner, one consume call, then the drain.
func (e *Engine) refinePartition(ctx context.Context, qN int, tuples []streamTuple, p int, theta *atomicMax, stats *Stats, dead []uint64) []survivor {
	var arena refineArena
	arena.reset(len(e.parts[p]), int(e.cOffs[p][len(e.parts[p])]))
	r := e.newPartRefiner(&e.opts, qN, p, theta, stats, dead, &arena)
	if !r.consume(ctx, tuples, 0) {
		return nil
	}
	return r.drain()
}
