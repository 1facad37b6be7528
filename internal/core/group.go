package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/matching"
)

// Group is a consistent snapshot of one or more engine segments searched as
// a single logical collection (DESIGN.md §4). The segments must share one
// token-ID space (their repositories intern into the same dictionary, or
// there is exactly one segment); the newest segment — the one with the
// largest vocabulary horizon — supplies the token stream, every segment's
// partitions refine the same tuples against their own CSR postings under
// one shared global θlb, and a single post-processing pass runs over the
// union of all survivors.
//
// Dead carries one optional tombstone bitset per segment, indexed by
// segment-local set ID: tombstoned sets are skipped at candidate creation,
// so a deleted set never contributes bounds, never enters the top-k lists,
// and is never verified. A Group is immutable; searching it takes no locks,
// which is what keeps Search wait-free with respect to writers.
type Group struct {
	// Engines are the segment engines, oldest first. A search's answer is
	// the first k live sets by the rule (DESIGN.md §1): score, then name,
	// so it does not depend on which segment holds a set.
	Engines []*Engine
	// Opts are the options every search of the group runs under, k included
	// — effective values, as Options.WithDefaults returns them. The engines'
	// own options are not consulted, and Partitions is not read here: each
	// engine keeps the partitions it was built with.
	Opts Options
	// Dead[i] is segment i's tombstone bitset (nil when segment i has no
	// tombstones). A shorter slice than Engines means the missing tails
	// have none.
	Dead [][]uint64
	// LiveTokens, when non-nil, is the bitset of token IDs occurring in at
	// least one live set. Tokens outside it (they survive only in deleted
	// sets — the shared dictionary is append-only) are treated as out of
	// vocabulary: their stream tuples are demoted to inert identity-only
	// tuples, which makes the search byte-identical to an engine built
	// from scratch on the live sets.
	LiveTokens []uint64
	// ProbeLiveOnly additionally skips the retrieval probe for query
	// elements whose token is not live — set when the source is
	// query-vocabulary-bound (index.QueryVocabBound): a from-scratch
	// vector index would not cover such elements, while a function-scan
	// source scores any query string and must still be probed.
	ProbeLiveOnly bool
}

// GroupResult is one entry of a group search's top-k result: the set is
// identified by its segment index and segment-local set ID.
type GroupResult struct {
	Seg      int
	Local    int
	Score    float64
	Verified bool
}

// lead returns the engine with the largest vocabulary horizon — the newest
// segment, whose repository view covers every token any segment indexed.
func (g *Group) lead() *Engine {
	lead := g.Engines[0]
	for _, e := range g.Engines[1:] {
		if e.vocabN > lead.vocabN {
			lead = e
		}
	}
	return lead
}

// locate resolves a group-wide dense set ID (base[seg]+local) back to its
// segment engine, segment index, and local set ID.
func (g *Group) locate(gid int, base []int) (*Engine, int, int) {
	for si := len(g.Engines) - 1; si > 0; si-- {
		if gid >= base[si] {
			return g.Engines[si], si, gid - base[si]
		}
	}
	return g.Engines[0], 0, gid
}

// SearchContext runs the top-k semantic overlap search for query across the
// group's segments and returns the result sets in descending score order
// together with aggregated filter statistics. The search observes ctx at
// phase boundaries and inside the refinement and post-processing loops; on
// cancellation it returns ctx's error with partial statistics and no
// results.
func (g *Group) SearchContext(ctx context.Context, query []string) ([]GroupResult, Stats, error) {
	if len(g.Engines) == 0 {
		return nil, Stats{}, ctx.Err()
	}
	lead := g.lead()
	sc := lead.getScratch()
	defer lead.putScratch(sc)
	results, stats, err := g.search(ctx, query, lead, sc)
	if err != nil || len(query) == 0 {
		return nil, stats, err
	}
	out := make([]GroupResult, len(results))
	for i, r := range results {
		_, seg, local := g.locate(r.SetID, sc.base)
		out[i] = GroupResult{Seg: seg, Local: local, Score: r.Score, Verified: r.Verified}
	}
	return out, stats, nil
}

// chunk is one partition refiner of a search, with its counters and the
// survivors it hands to post-processing; seg and p name its segment and
// partition.
type chunk struct {
	stats Stats
	r     *partRefiner
	surv  []survivor
	seg   int
	p     int
}

// search is SearchContext on lead's scratch sc: every buffer it needs is
// sc's, or pooled by the probe and the source, so a warmed search allocates
// nothing (DESIGN.md §3). The results carry group-wide set IDs (sc.base
// resolves them) and live in sc: they are the caller's until it releases
// sc.
func (g *Group) search(ctx context.Context, query []string, lead *Engine, sc *queryScratch) ([]Result, Stats, error) {
	var stats Stats
	stats.Segments = len(g.Engines)
	query, qids, skip := g.queryIDs(query, lead, sc)
	if len(query) == 0 {
		return nil, stats, ctx.Err()
	}
	opts := &g.Opts

	refineStart := time.Now()
	// base turns (segment, local set ID) into one dense group-wide ID space
	// ordered by segment age then local position — insertion order.
	base := sized(sc.base, len(g.Engines)+1)
	sc.base = base
	base[0] = 0
	cWords, nParts := 0, 0
	for i, e := range g.Engines {
		base[i+1] = base[i] + e.repo.Len()
		cWords += e.cWords()
		nParts += len(e.parts)
	}

	// Every partition of every segment walks the same tuples; the global
	// θlb is shared across all of them (§VI, extended across segments).
	theta := &sc.theta
	theta.bits.Store(0)
	chunks := zeroed(sc.chunks, nParts)
	sc.chunks = chunks
	sc.refine.reset(base[len(g.Engines)], (len(query)+63)/64, cWords)
	sc.refiners = regrown(sc.refiners, nParts)
	sc.verify = regrown(sc.verify, opts.Workers)
	n := 0
	for si, e := range g.Engines {
		var dead []uint64
		if si < len(g.Dead) {
			dead = g.Dead[si]
		}
		share := sc.refine.carve(e)
		for p := range e.parts {
			c := &chunks[n]
			c.seg, c.p = si, p
			c.r = e.newPartRefiner(opts.K, len(query), p, theta, &c.stats, dead, &share, &sc.refiners[n])
			n++
		}
	}

	streamStart := time.Now()
	tuples, cache, retrieved := lead.openStream(query, qids, skip, opts.Alpha, g.LiveTokens, sc)
	stats.StreamRetrieved = retrieved
	stats.StreamTuples = retrieved + len(query)
	boundStart := time.Now()
	stats.StreamTime = boundStart.Sub(streamStart)
	// Bound every set by the maxima the stream brings, seed θlb from the sets
	// those bounds rank first, and take the sets the seed solved out of the
	// walk (DESIGN.md §2). The seed's solves are verifications: their time,
	// their graphs' gathers included, is VerifyTime's, not BoundTime's.
	for i := range chunks {
		chunks[i].r.addBounds(tuples)
	}
	theta.Update(g.seedTheta(cache, sc.refine.bound, len(query), base, sc, &sc.verify[0], &stats))
	for i := range chunks {
		c := &chunks[i]
		c.r.markSeeds(sc.seedScores, base[c.seg])
	}
	walkStart := time.Now()
	stats.BoundTime = walkStart.Sub(boundStart) - stats.VerifyTime
	if !g.walk(ctx, chunks, tuples) {
		return nil, stats, ctx.Err()
	}
	drainStart := time.Now()
	stats.WalkTime = drainStart.Sub(walkStart)
	// The stream, and per edge its place in the cache.
	stats.MemStreamBytes = int64(len(tuples))*int64(unsafe.Sizeof(streamTuple{})) + int64(len(cache.arena))*int64(unsafe.Sizeof(qEdge{})) +
		int64(len(sc.offsets))*4 + int64(len(sc.seen))*8
	for i := range chunks {
		c := &chunks[i]
		c.surv = c.r.drain()
	}
	stats.DrainTime = time.Since(drainStart)
	survivors := sc.post.survivors[:0]
	for i := range chunks {
		c := &chunks[i]
		stats.add(&c.stats)
		if hook := g.Engines[c.seg].refinerHook; hook != nil {
			hook(c.p, c.r)
		}
		for _, sv := range c.surv {
			sv.setID += base[c.seg]
			survivors = append(survivors, sv)
		}
	}
	sc.post.survivors = survivors
	if lead.survivorHook != nil {
		lead.survivorHook(survivors, sc.refine.bound, sc.seedScores)
	}
	stats.RefineTime = time.Since(refineStart)

	// Post-processing runs once over the union of all segments' and
	// partitions' survivors: they already share the global θlb, so a single
	// Alg. 2 pass over the merged candidate pool is equivalent to per-part
	// passes plus a merge — and avoids exact-matching up to k·parts
	// per-partition winners that the global top-k never needs.
	postStart := time.Now()
	results, err := g.postproc(ctx, len(query), cache, survivors, theta, &stats, base, sc)
	if err != nil {
		return nil, stats, err
	}
	stats.PostprocTime = time.Since(postStart)
	return results, stats, nil
}

// queryIDs sets sc.query to the distinct elements of query and sc.qids to
// their token IDs in lead's repository (Engine's dedup), and returns both
// with the probe mask. Under LiveTokens, an element whose token survives
// only in deleted sets is out of vocabulary: its ID becomes -1 and, on a
// vocabulary-bound source (ProbeLiveOnly), the mask leaves it unprobed —
// exactly what an engine that never saw those sets would do.
func (g *Group) queryIDs(query []string, lead *Engine, sc *queryScratch) ([]string, []int32, []bool) {
	query, qids := sc.dedup(query, lead.repo)
	var skip []bool
	if g.LiveTokens == nil {
		return query, qids, nil
	}
	for i, id := range qids {
		if id >= 0 && g.LiveTokens[id>>6]&(1<<(uint(id)&63)) != 0 {
			continue
		}
		// Not live: either dead (id ≥ 0, bit clear) or unresolvable in the
		// lead repository (id -1). The latter still needs the probe gate —
		// the shared dictionary can hold tokens beyond every live segment's
		// vocabulary horizon (e.g. rows lost to a quarantined segment), and
		// a vocabulary-bound source built over that dictionary would happily
		// retrieve neighbors a from-scratch index could never produce.
		if g.ProbeLiveOnly {
			if skip == nil {
				skip = zeroed(sc.skip, len(query))
				sc.skip = skip
			}
			skip[i] = true
		}
		qids[i] = -1
	}
	return query, qids, skip
}

// walk has every partition refiner consume the whole stream, in parallel
// when there are several, and reports false when ctx was canceled.
func (g *Group) walk(ctx context.Context, chunks []chunk, tuples []streamTuple) bool {
	if len(chunks) == 1 {
		return chunks[0].r.consume(ctx, tuples)
	}
	var wg sync.WaitGroup
	var canceled atomic.Bool
	for i := range chunks {
		wg.Add(1)
		go func(r *partRefiner) {
			defer wg.Done()
			if !r.consume(ctx, tuples) {
				canceled.Store(true)
			}
		}(chunks[i].r)
	}
	wg.Wait()
	return !canceled.Load()
}

// seedSet is a candidate of the θlb seed: a group-wide set ID and its
// stream-wide bound.
type seedSet struct {
	gid   int
	bound float64
}

// seedTheta returns a lower bound on the k-th largest semantic overlap of
// the group's live sets, formed before the walk (DESIGN.md §2): it takes
// the k live sets the stream touches with the largest stream-wide bounds
// (bound, by group-wide set ID, as addBounds filled it; the lowest set ID
// first on ties), gathers each one's α-graph into vs as appendGraph lays it
// out, and scores it. A set is scored by its exact semantic overlap,
// solved through its engine's verify without a bound and kept in
// sc.seedScores for post-processing — except, without ExactScores, a set
// whose greedy matching (seedGreedy) already weighs its stream-wide bound:
// its greedy weight is then its score and it is not solved. Each score is
// a real matching's weight, so it is at most its set's semantic overlap,
// and the smallest of k of them, over k distinct live sets, is at most the
// k-th largest. With fewer than k such sets it returns 0: no seed. The
// sets stay in sc.seeds. The solves are verifications, and stats counts
// them so (SeedEM, VerifyCalls, HungarianIterations, and VerifyTime from
// the gather of each solved set's graph on).
func (g *Group) seedTheta(cache *edgeCache, bound []float64, qN int, base []int, sc *queryScratch, vs *verifyScratch, stats *Stats) float64 {
	k := g.Opts.K
	top := sc.seeds[:0]
	// thr is the bound a set must beat to enter top: 0 until top holds k
	// sets, then its last one's. No bound is negative before the walk, so
	// one comparison passes over the sets of bound 0 and, once top is
	// full, the sets that cannot enter it.
	thr := 0.0
	for si := range g.Engines {
		var dead []uint64
		if si < len(g.Dead) {
			dead = g.Dead[si]
		}
		for gid := base[si]; gid < base[si+1]; gid++ {
			b := bound[gid]
			if b <= thr {
				continue
			}
			if sid := gid - base[si]; dead != nil && dead[sid>>6]&(1<<(uint(sid)&63)) != 0 {
				continue
			}
			// Insert into top, which is kept by descending bound.
			at := len(top)
			if at < k {
				top = append(top, seedSet{})
			} else {
				at--
			}
			for ; at > 0 && top[at-1].bound < b; at-- {
				top[at] = top[at-1]
			}
			top[at] = seedSet{gid: gid, bound: b}
			if len(top) == k {
				thr = top[k-1].bound
			}
		}
	}
	sc.seeds = top
	scores := sc.seedScores[:0]
	sc.seedScores = scores
	if len(top) < k {
		return 0
	}
	exact := g.Opts.ExactScores
	if !exact {
		sc.seedUsed = sized(sc.seedUsed, (qN+63)/64)
	}
	seed := math.Inf(1)
	for _, c := range top {
		e, _, local := g.locate(c.gid, base)
		elems := e.repo.Set(local).ElemIDs
		cols, w := 0, 0.0
		// A solve is timed from its graph's gather, as verifyGid's is.
		start := time.Now()
		if exact {
			vs.edges, cols = appendGraph(vs.edges[:0], cache, elems)
		} else {
			vs.edges, cols, w = seedGreedy(vs.edges[:0], cache, elems, sc.seedUsed)
		}
		if exact || w < c.bound {
			res := e.verify(qN, cols, vs.edges, nil, vs)
			stats.VerifyTime += time.Since(start)
			stats.countVerify(res)
			stats.SeedEM++
			scores = append(scores, seedScore{gid: c.gid, score: res.Score, iters: res.Iterations})
			w = res.Score
		}
		seed = min(seed, w)
	}
	slices.SortFunc(scores, func(a, b seedScore) int { return a.gid - b.gid })
	sc.seedScores = scores
	return seed
}

// seedGreedy appends the α-graph of a set with element IDs elems to dst,
// as appendGraph does, and returns it with its column count and the weight
// of a greedy matching over it, formed in the same pass so that the edges
// are read once: element by element in set order, each element takes the
// most similar query element still free (in used, which it clears first).
func seedGreedy(dst []matching.Edge, cache *edgeCache, elems []int32, used []uint64) ([]matching.Edge, int, float64) {
	clear(used)
	cols, w := 0, 0.0
	for _, tid := range elems {
		edges := cache.edges(tid)
		if len(edges) == 0 {
			continue
		}
		q, best := int32(-1), 0.0
		for _, ed := range edges {
			dst = append(dst, matching.Edge{Q: ed.qIdx, C: int32(cols), W: ed.sim})
			if ed.sim > best && used[ed.qIdx>>6]&(1<<(uint(ed.qIdx)&63)) == 0 {
				q, best = ed.qIdx, ed.sim
			}
		}
		cols++
		if q >= 0 {
			used[q>>6] |= 1 << (uint(q) & 63)
			w += best
		}
	}
	return dst, cols, w
}
