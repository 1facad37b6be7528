package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/sets"
)

// Group is a consistent snapshot of one or more engine segments searched as
// a single logical collection (DESIGN.md §4). The segments must share one
// token-ID space (their repositories intern into the same dictionary, or
// there is exactly one segment); the newest segment — the one with the
// largest vocabulary horizon — supplies the token stream, every segment's
// partitions refine the same materialized tuples against their own CSR
// postings under one shared global θlb, and a single post-processing pass
// runs over the union of all survivors.
//
// Dead carries one optional tombstone bitset per segment, indexed by
// segment-local set ID: tombstoned sets are skipped at candidate creation,
// so a deleted set never contributes bounds, never enters the top-k lists,
// and is never verified. A Group is immutable; searching it takes no locks,
// which is what keeps Search wait-free with respect to writers.
type Group struct {
	// Engines are the segment engines, oldest first. Result ordering ties
	// break toward older segments (then lower local IDs), which preserves
	// insertion order across the whole group.
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
	var stats Stats
	stats.Segments = len(g.Engines)
	query = sets.Dedup(query)
	if len(query) == 0 || len(g.Engines) == 0 {
		return nil, stats, ctx.Err()
	}
	lead := g.lead()
	opts := &g.Opts
	qids := lead.repo.TokenIDs(query)
	var skip []bool
	if g.LiveTokens != nil {
		// Query elements whose token survives only in deleted sets are out
		// of vocabulary: identity tuple with an unresolved ID (and, on
		// vocabulary-bound sources, no retrieval probe) — exactly what an
		// engine that never saw those sets would do.
		for i, id := range qids {
			live := id >= 0 && g.LiveTokens[id>>6]&(1<<(uint(id)&63)) != 0
			if live {
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
					skip = make([]bool, len(query))
				}
				skip[i] = true
			}
			qids[i] = -1
		}
	}

	refineStart := time.Now()
	sc := lead.getScratch()
	defer lead.scratch.Put(sc) // cache.offsets aliases sc; released on return

	// base turns (segment, local set ID) into one dense group-wide ID space
	// ordered by segment age then local position — insertion order.
	base := make([]int, len(g.Engines)+1)
	cWords, nParts := 0, 0
	for i, e := range g.Engines {
		base[i+1] = base[i] + e.repo.Len()
		cWords += e.cWords
		nParts += len(e.parts)
	}

	// Every partition of every segment refines the same shared tuple arena;
	// the global θlb is shared across all of them (§VI, extended across
	// segments). The pump (DESIGN.md §10) feeds the stream into the arena
	// block by block and cuts it once the termination condition holds; a
	// search that disabled the cut-off, or the iUB filter it builds on,
	// gets the whole stream as one block and no cut.
	theta := &atomicMax{}
	type chunk struct {
		stats Stats
		r     *partRefiner
		rs    *replayScratch
		surv  []survivor
	}
	chunks := make([][]chunk, len(g.Engines))
	refiners := make([][]*partRefiner, len(g.Engines))
	sc.refine.reset(base[len(g.Engines)], cWords)
	sc.replay = regrown(sc.replay, nParts)
	sc.verify = regrown(sc.verify, opts.Workers)
	nref := 0
	for si, e := range g.Engines {
		chunks[si] = make([]chunk, len(e.parts))
		refiners[si] = make([]*partRefiner, len(e.parts))
		var dead []uint64
		if si < len(g.Dead) {
			dead = g.Dead[si]
		}
		for p := range e.parts {
			c := &chunks[si][p]
			c.r = e.newPartRefiner(opts, len(query), p, theta, &c.stats, dead, &sc.refine)
			c.rs = &sc.replay[nref]
			c.rs.kept, c.rs.ties = 0, 0
			nref++
			refiners[si][p] = c.r
		}
	}

	st := index.NewLazyStream(query, qids, lead.src, opts.Alpha, skip)
	tuples, cut, cutLevel, at, ok := g.pumpLazy(ctx, st, refiners, theta, lead, sc, len(query))
	stats.StreamTuples = len(tuples)
	stats.StreamCut = cut
	stats.StreamCutLevel = cutLevel
	if !ok {
		return nil, stats, ctx.Err()
	}
	if cut {
		// Edge completion: finish the stream into the arena for cache
		// building only — the refiners never see the tail, and it arrives
		// unordered. Every lazy source computes its whole scan when the
		// cursor is created, so this costs appends, not similarity
		// evaluations or sorting.
		tuples = lead.drainStream(st, tuples, sc, g.LiveTokens)
	}
	stats.StreamRetrieved = st.Retrieved()
	cache := lead.buildEdgeCache(tuples, sc)
	stats.MemStreamBytes = int64(cap(tuples))*24 + int64(len(cache.arena))*16 +
		int64(len(sc.offsets))*4 + int64(len(sc.seen))*8
	// Survivors: on a cut, reconstruct the whole-stream outcome — phase one
	// replays every alive candidate's full-stream bounds and rebuilds the
	// final global θlb through the per-partition Llb lists; phase two
	// applies the drain filter under that final θlb. Without a cut the
	// refiners consumed the whole stream, so the drain is all there is.
	if cut {
		thetaCut := theta.Load()
		var wg sync.WaitGroup
		for si := range g.Engines {
			for p := range chunks[si] {
				c := &chunks[si][p]
				wg.Add(1)
				go func(c *chunk) {
					defer wg.Done()
					c.surv = c.r.replayPool(cache.edges, qids, cutLevel, thetaCut, at, c.rs)
				}(c)
			}
		}
		wg.Wait()
		finalTheta := theta.Load()
		for si := range g.Engines {
			for p := range chunks[si] {
				c := &chunks[si][p]
				c.surv = c.r.filterPool(c.surv, finalTheta)
			}
		}
	} else {
		for si := range g.Engines {
			for p := range chunks[si] {
				c := &chunks[si][p]
				c.surv = c.r.drain()
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	survivors := sc.post.survivors[:0]
	replayTies := 0
	for si := range chunks {
		for p := range chunks[si] {
			stats.add(&chunks[si][p].stats)
			for _, sv := range chunks[si][p].surv {
				sv.setID += base[si]
				survivors = append(survivors, sv)
			}
			replayTies += chunks[si][p].rs.ties
		}
	}
	sc.post.survivors = survivors
	if lead.survivorHook != nil {
		lead.survivorHook(survivors, replayTies)
	}
	stats.RefineTime = time.Since(refineStart)

	// Post-processing runs once over the union of all segments' and
	// partitions' survivors: they already share the global θlb, so a single
	// Alg. 2 pass over the merged candidate pool is equivalent to per-part
	// passes plus a merge — and avoids exact-matching up to k·parts
	// partition-local winners that the global top-k never needs.
	postStart := time.Now()
	llb := pqueue.NewTopK(opts.K)
	for _, sv := range survivors {
		llb.Update(sv.setID, sv.lb)
	}
	theta.Update(llb.Bottom())
	results, err := g.postproc(ctx, len(query), cache, survivors, llb, theta, &stats, base, sc)
	if err != nil {
		return nil, stats, err
	}

	if opts.ExactScores {
		for i, r := range results {
			if r.Verified {
				continue
			}
			// A result set is a proven top-k member, so its score is at
			// least θlb ≤ θ*k and the bounded verification can never
			// terminate early (the dual sum never drops below the score).
			res := g.verifyGid(r.SetID, len(query), cache, theta, base, &sc.verify[0])
			stats.HungarianIterations += res.Iterations
			stats.VerifyCalls++
			if res.Skipped {
				stats.HungarianSkipped++
			}
			stats.FinalizeEM++
			results[i].Score = res.Score
			results[i].Verified = true
		}
		sortResults(results)
	}
	stats.PostprocTime = time.Since(postStart)

	out := make([]GroupResult, len(results))
	for i, r := range results {
		_, seg, local := g.locate(r.SetID, base)
		out[i] = GroupResult{Seg: seg, Local: local, Score: r.Score, Verified: r.Verified}
	}
	return out, stats, nil
}
