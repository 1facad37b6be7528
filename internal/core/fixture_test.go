package core

import (
	"context"
	"testing"

	"repro/internal/index"
	"repro/internal/sets"
)

// group returns the engine alone as a Group of its own, which a test may
// change (its Dead, say) without touching the engine's.
func (e *Engine) group() *Group { return &Group{Engines: []*Engine{e}, Opts: e.opts} }

// tombstoned returns the engine alone as a Group in which every every-th set
// is deleted: the sets are tombstoned in Dead, and LiveTokens holds the
// tokens of the others, so the tokens only deleted sets hold are demoted.
func tombstoned(e *Engine, every int) *Group {
	g := e.group()
	n := e.repo.Len()
	dead := make([]uint64, (n+63)/64)
	live := make([]uint64, (e.vocabN+63)/64)
	for sid := range n {
		if sid%every == 0 {
			dead[sid>>6] |= 1 << (uint(sid) & 63)
			continue
		}
		for _, id := range e.repo.Set(sid).ElemIDs {
			live[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	g.Dead, g.LiveTokens = [][]uint64{dead}, live
	return g
}

// noteTuple annotates one tuple of the eager index.Stream as a search's
// walk carries it: its token resolved against the engine's vocabulary and
// the live-token bitset live (-1 for a token in no live set), and its first
// arrival marked through sc.seen.
func (e *Engine) noteTuple(tup index.Tuple, sc *queryScratch, live []uint64) streamTuple {
	id := e.liveID(tup.TokenID, live)
	first := true
	if id >= 0 {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		first = sc.seen[w]&bit == 0
		sc.seen[w] |= bit
	}
	return streamTuple{tokenID: id, qIdx: int32(tup.QIdx), sim: tup.Sim, first: first}
}

// eagerTuples drains the eager index.Stream over e's source — the merge
// whose order a search's sorted walk is held to — through noteTuple, from a
// clear sc.seen. Tuples of tokens in no live set stay in, as -1.
func (e *Engine) eagerTuples(query []string, qids []int32, skip []bool, live []uint64, sc *queryScratch) []streamTuple {
	clear(sc.seen)
	st := index.NewStreamMasked(query, qids, e.src, e.opts.Alpha, skip)
	defer st.Release()
	var tuples []streamTuple
	for {
		tup, ok := st.Next()
		if !ok {
			return tuples
		}
		tuples = append(tuples, e.noteTuple(tup, sc, live))
	}
}

// materializeStream builds the edge cache for query as a search does
// (Engine.openStream) and returns it with the eager stream's tuples
// (eagerTuples), for the tests and benchmarks that drive a refiner or the
// post-processing phase directly. The cache aliases sc.
func (e *Engine) materializeStream(query []string, qids []int32, sc *queryScratch) ([]streamTuple, *edgeCache) {
	_, cache, _ := e.openStream(query, qids, nil, e.opts.Alpha, nil, sc)
	return e.eagerTuples(query, qids, nil, nil, sc), cache
}

// seedFor returns the θlb seed a search of query over e, an engine of one
// partition whose tombstones are dead, starts from (Group.seedTheta), the
// scratch that holds the sets it took (seeds), the scores it kept
// (seedScores) and the edge cache, and the stream-wide bounds it drew the
// sets from.
func (e *Engine) seedFor(query []string, dead []uint64) (float64, *queryScratch, []float64) {
	query = sets.Dedup(query)
	qids := e.repo.TokenIDs(query)
	sc := e.getScratch()
	tuples, cache, _ := e.openStream(query, qids, nil, e.opts.Alpha, nil, sc)
	r := e.newRefiner(len(query), 0, &atomicMax{}, &Stats{}, dead)
	r.addBounds(tuples)
	g := e.group()
	g.Dead = [][]uint64{dead}
	seed := g.seedTheta(cache, r.bound, len(query), []int{0, e.repo.Len()}, sc, &verifyScratch{}, &Stats{})
	return seed, sc, r.bound
}

// seededRefiner readies partition 0's refiner for a search of query over
// e, an engine of one partition, as Group.search does up to the walk: the
// stream, its stream-wide bounds, the θlb seed raised into theta and the
// seed's solved sets taken out of the walk (markSeeds). It returns the
// refiner and the stream it is to consume.
func (e *Engine) seededRefiner(query []string, theta *atomicMax, stats *Stats) (*partRefiner, []streamTuple) {
	query = sets.Dedup(query)
	sc := e.getScratch()
	tuples, cache, _ := e.openStream(query, e.repo.TokenIDs(query), nil, e.opts.Alpha, nil, sc)
	r := e.newRefiner(len(query), 0, theta, stats, nil)
	r.addBounds(tuples)
	theta.Update(e.group().seedTheta(cache, r.bound, len(query), []int{0, e.repo.Len()}, sc, &verifyScratch{}, stats))
	r.markSeeds(sc.seedScores, 0)
	return r, tuples
}

// newRefiner prepares a refiner of partition p, for the engine's own k, on
// an arena of its own. Its bounds are all 0 until addBounds runs, so a θlb
// above 0 settles every set the walk meets.
func (e *Engine) newRefiner(qN, p int, theta *atomicMax, stats *Stats, dead []uint64) *partRefiner {
	var arena refineArena
	arena.reset(e.repo.Len(), (qN+63)/64, e.cWords())
	share := arena.carve(e)
	return e.newPartRefiner(e.opts.K, qN, p, theta, stats, dead, &share, new(refinerScratch))
}

// refinePartition runs Algorithm 1 over partition p against a fully
// materialized tuple slice as a search does, without the θlb seed: one
// refiner, its stream-wide bounds, one consume call, then the drain.
func (e *Engine) refinePartition(ctx context.Context, qN int, tuples []streamTuple, p int, theta *atomicMax, stats *Stats, dead []uint64) []survivor {
	r := e.newRefiner(qN, p, theta, stats, dead)
	r.addBounds(tuples)
	if !r.consume(ctx, tuples) {
		return nil
	}
	return r.drain()
}

// dictOf rebuilds the dictionary a repository built by sets.NewRepository
// interns into: its vocabulary, in token-ID order.
func dictOf(tb testing.TB, r *sets.Repository) *sets.Dictionary {
	tb.Helper()
	d, err := sets.NewDictionaryFromTokens(r.Vocabulary())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}
