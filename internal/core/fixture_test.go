package core

import (
	"context"

	"repro/internal/index"
	"repro/internal/sets"
)

// group returns the engine alone as a Group of its own, which a test may
// change (its Dead, say) without touching the engine's.
func (e *Engine) group() *Group { return &Group{Engines: []*Engine{e}, Opts: e.opts} }

// materializeStream builds the edge cache for query from a peek at its whole
// token stream and then drains the stream into annotated tuples — what a
// search's peekStream and pump produce when no cut is taken, in one call,
// for the tests and benchmarks that drive a refiner or the post-processing
// phase directly. The returned cache aliases sc.
func (e *Engine) materializeStream(query []string, qids []int32, sc *queryScratch) ([]streamTuple, *edgeCache) {
	st := index.NewStreamInterned(query, qids, e.src, e.opts.Alpha)
	cache, _ := e.peekStream(st, sc, nil)
	var tuples []streamTuple
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		tuples = append(tuples, e.noteTuple(tup, sc, nil))
	}
	return tuples, cache
}

// seedFor returns the θlb seed a search of query over e, an engine of one
// partition whose tombstones are dead, starts from (Group.seedTheta), the
// sets it matched, and the stream-wide bounds and edge cache it drew them
// from.
func (e *Engine) seedFor(query []string, dead []uint64) (float64, []seedSet, []float64, *edgeCache) {
	query = sets.Dedup(query)
	qids := e.repo.TokenIDs(query)
	sc := e.getScratch()
	cache, _ := e.peekStream(index.NewStreamInterned(query, qids, e.src, e.opts.Alpha), sc, nil)
	r := e.newRefiner(len(query), 0, &atomicMax{}, &Stats{}, dead)
	r.addBounds(cache.maxima(qids, sc))
	g := e.group()
	g.Dead = [][]uint64{dead}
	seed := g.seedTheta(cache, r.bound, len(query), []int{0, e.repo.Len()}, sc)
	return seed, sc.seeds, r.bound, cache
}

// newRefiner prepares a refiner of partition p, under the engine's own
// options, on an arena of its own.
func (e *Engine) newRefiner(qN, p int, theta *atomicMax, stats *Stats, dead []uint64) *partRefiner {
	var arena refineArena
	arena.reset(e.repo.Len(), (qN+63)/64, e.cWords())
	share, score := arena.carve(e)
	return e.newPartRefiner(&e.opts, qN, p, theta, stats, dead, &share, score, new(refinerScratch))
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
