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

// newRefiner prepares a refiner of partition p, under the engine's own
// options, on an arena of its own.
func (e *Engine) newRefiner(qN, p int, theta *atomicMax, stats *Stats, dead []uint64) *partRefiner {
	var arena refineArena
	arena.reset(e.repo.Len(), (qN+63)/64, e.cWords())
	share, score := arena.carve(e)
	r := e.newPartRefiner(&e.opts, qN, p, theta, stats, dead, &share, score)
	r.rs = new(refinerScratch)
	return r
}

// refinePartition runs Algorithm 1 over partition p against a fully
// materialized tuple slice: one refiner, one consume call, then the drain.
func (e *Engine) refinePartition(ctx context.Context, qN int, tuples []streamTuple, p int, theta *atomicMax, stats *Stats, dead []uint64) []survivor {
	r := e.newRefiner(qN, p, theta, stats, dead)
	if !r.consume(ctx, tuples, 0) {
		return nil
	}
	return r.drain()
}
