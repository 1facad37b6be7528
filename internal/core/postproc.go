package core

import (
	"context"
	"slices"
	"time"
	"unsafe"

	"repro/internal/matching"
	"repro/internal/pqueue"
)

// ubEntry is an entry of the post-processing queue Qub: a survivor, by its
// index in set-ID order, and the high end of its score (postScratch.hi) when
// it was queued. Qub orders its entries by the rule on that value.
type ubEntry struct {
	hi float64
	i  int32
}

// A survivor's post-processing flags.
const (
	postChecked  uint8 = 1 << iota // its place in the result is settled: verified, or admitted by No-EM
	postDropped                    // out of the result, certified by ub < θlb or by Lemma 8
	postVerified                   // lb holds its exact semantic overlap
)

// postScratch is the pooled memory of one search's post-processing: the
// Llb, the merged survivors and Algorithm 2's state over them, addressed by
// a survivor's index in set-ID order.
type postScratch struct {
	llb       pqueue.TopK
	survivors []survivor
	// ub and lb are a survivor's refinement bounds, which the θlb prunes
	// read, and hi and lo bound its exact score bit for bit (survivor). A
	// verified survivor's four are its exact score.
	ub, lb, hi, lo []float64
	flags          []uint8
	qub            []ubEntry
	lub            []int32
	pending        []int32
	results        []Result
	// g and base are the search's group and group-wide set-ID offsets, the
	// rule's way to a survivor's name. qubLess orders Qub by the rule; it is
	// made once per scratch.
	g       *Group
	base    []int
	qubLess func(a, b ubEntry) bool
}

// before is the rule that decides every answer (DESIGN.md §1): survivor i
// at score x sorts before survivor j at score y if x is the higher score,
// or on equal scores if its name is the lower, or on equal names — an
// engine built over duplicate names — if its group-wide set ID is the
// lower, which is i < j: the survivors are in set-ID order. Names are read
// only on equal scores.
func (p *postScratch) before(x float64, i int32, y float64, j int32) bool {
	if x != y {
		return x > y
	}
	if a, b := p.name(i), p.name(j); a != b {
		return a < b
	}
	return i < j
}

// name returns survivor i's name, read from its engine.
func (p *postScratch) name(i int32) string {
	e, _, local := p.g.locate(p.survivors[i].setID, p.base)
	return e.repo.Set(local).Name
}

// verifyGid runs the exact verification of the set with group-wide ID gid,
// its graph gathered into vs, and reports how long it took
// (Stats.VerifyTime).
func (g *Group) verifyGid(gid, qN int, cache *edgeCache, theta *atomicMax, base []int, vs *verifyScratch) (matching.Result, time.Duration) {
	start := time.Now()
	eng, _, local := g.locate(gid, base)
	var cols int
	vs.edges, cols = appendGraph(vs.edges[:0], cache, eng.repo.Set(local).ElemIDs)
	res := eng.verify(qN, cols, vs.edges, theta, vs)
	return res, time.Since(start)
}

// postproc runs Algorithm 2 over the refinement survivors (merged across
// all partitions and segments — they already share the global θlb) and
// returns the first k of them by the rule (postScratch.before), in its
// order, their scores exact under ExactScores. Survivor set IDs are
// group-wide dense IDs (base[seg]+local); locate resolves them back to a
// segment engine for verification. It sorts the survivors by set ID and
// keeps everything it knows about one — bounds and flags — in arrays
// under its index, so that no step hashes a set ID. A survivor's exact
// score lies in [lo, hi] (postScratch.hi), and every order below is the
// rule on hi. It maintains
//
//   - Lub, the running top-k list (its last member under the rule is θub):
//     the members' indices in ascending order;
//   - Qub, a priority queue of the remaining sets;
//   - Llb (rebuilt from survivor lower bounds), whose bottom feeds the
//     global θlb as verifications complete.
//
// Invariant: every alive set outside Lub sorts after every member. A hi
// only falls, so θub only moves down the order; a member whose lo does not
// sort after θub therefore sorts, at its exact score, before every set that
// is or will be outside Lub, which is the No-EM test of Lemma 7 under the
// rule (DESIGN.md §1).
//
// ctx is polled once per round of the outer loop; on cancellation postproc
// returns ctx's error (in-flight verifications of the current round finish
// first — they are bounded by the dual-sum filter).
//
// sc.verify holds one verifyScratch per verification worker (opts.Workers
// of them): the i-th verification of a round runs on sc.verify[i], and a
// round is fully collected before the next starts, so no scratch is ever
// shared. The results live in sc as well, like all of postproc's working
// memory: they are the caller's until it releases sc.
func (g *Group) postproc(ctx context.Context, qN int, cache *edgeCache, survivors []survivor, theta *atomicMax, stats *Stats, base []int, sc *queryScratch) ([]Result, error) {
	opts := &g.Opts
	k, n := opts.K, len(survivors)
	slots := min(k, n)
	slices.SortFunc(survivors, func(a, b survivor) int { return a.setID - b.setID })

	p := &sc.post
	p.g, p.base, p.survivors = g, base, survivors
	if p.qubLess == nil {
		p.qubLess = func(a, b ubEntry) bool { return p.before(a.hi, a.i, b.hi, b.i) }
	}
	p.ub, p.lb, p.hi, p.lo = sized(p.ub, n), sized(p.lb, n), sized(p.hi, n), sized(p.lo, n)
	p.flags = zeroed(p.flags, n)
	p.qub, p.lub, p.pending = sized(p.qub, n), sized(p.lub, slots), sized(p.pending, slots)
	ub, lb, hi, lo, flags := p.ub, p.lb, p.hi, p.lo, p.flags
	// A survivor the θlb seed solved enters verified, the drain having handed
	// it over with its kept score as all four bounds: no round and no
	// finalization solves it again. The kept scores are sorted by set ID, as
	// the survivors now are.
	llb := &p.llb
	llb.Reset(k)
	seeds := sc.seedScores
	for i, sv := range survivors {
		ub[i], lb[i], hi[i], lo[i] = sv.ub, sv.lb, sv.hi, sv.lo
		for len(seeds) > 0 && seeds[0].gid < sv.setID {
			seeds = seeds[1:]
		}
		if len(seeds) > 0 && seeds[0].gid == sv.setID {
			flags[i] = postVerified | postChecked
			stats.EMFull++
		}
		llb.Update(sv.setID, lb[i])
		p.qub[i] = ubEntry{hi: hi[i], i: int32(i)}
	}
	theta.Update(llb.Bottom())
	// Verification re-queues a survivor only after its entry was popped into
	// Lub, so the queue never outgrows the n entries it starts with.
	qub := pqueue.NewHeapFrom(p.qub, p.qubLess)
	lub, pending := p.lub[:0], p.pending[:0]
	// The lists, and the scores the seed kept.
	stats.MemPostprocBytes += int64(n)*(4*8+16+1+16) + int64(slots)*(4+4) +
		int64(len(sc.seedScores))*int64(unsafe.Sizeof(seedScore{}))

	refill := func() {
		for len(lub) < k && qub.Len() > 0 {
			top := qub.Pop()
			i := top.i
			j, inLub := slices.BinarySearch(lub, i)
			if inLub || flags[i]&postDropped != 0 || top.hi != hi[i] {
				continue // dropped or stale entry
			}
			if t := theta.Load(); ub[i] < t-pruneEps {
				flags[i] |= postDropped // lazy UB prune, certified by ub < θlb
				continue
			}
			lub = slices.Insert(lub, j, i)
		}
	}

	apply := func(i int32, res matching.Result, took time.Duration) {
		stats.countVerify(res)
		stats.VerifyTime += took
		// A verified set leaves Lub: for good, or until refill finds that its
		// exact score still belongs there (Alg. 2 lines 10–15).
		j, _ := slices.BinarySearch(lub, i)
		lub = slices.Delete(lub, j, j+1)
		if res.Pruned {
			// Label sum fell below θlb: SO(sid) < θlb ≤ θ*k (Lemma 8).
			stats.EMEarly++
			flags[i] |= postDropped
			return
		}
		stats.EMFull++
		so := res.Score
		flags[i] |= postVerified | postChecked
		ub[i], lb[i], hi[i], lo[i] = so, so, so, so
		if llb.Update(survivors[i].setID, so) {
			theta.Update(llb.Bottom())
		}
		qub.Push(ubEntry{hi: so, i: i})
	}

	// Parallel verification with a shared, live θlb: results are applied as
	// they complete, so a finished matching can raise θlb and early-terminate
	// its in-flight peers (§VI). Each round sends exactly len(pending) ≤
	// Workers results, so the channel never blocks a sender.
	type vres struct {
		i    int32
		res  matching.Result
		took time.Duration
	}
	var ch chan vres

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refill()
		// Cheap passes first: lazy UB pruning of Lub members, after which
		// refill makes Lub whole again before anything is admitted.
		t := theta.Load()
		pruned := false
		lub = slices.DeleteFunc(lub, func(i int32) bool {
			if ub[i] >= t-pruneEps {
				return false
			}
			flags[i] |= postDropped
			pruned = true
			return true
		})
		if pruned {
			continue
		}
		// Then the No-EM admission test (Lemma 7) against θub, the member
		// that sorts last. When Lub is not full after refill, Qub is empty:
		// every alive candidate is a member and part of the result.
		full, last := len(lub) == k, int32(-1)
		for _, i := range lub {
			if last < 0 || p.before(hi[last], last, hi[i], i) {
				last = i
			}
		}
		pending = pending[:0]
		for _, i := range lub {
			if flags[i]&postChecked != 0 {
				continue
			}
			if !full || !p.before(hi[last], last, lo[i], i) {
				flags[i] |= postChecked
				continue
			}
			pending = append(pending, i)
		}
		if len(pending) == 0 {
			break
		}
		// Verify the highest sets first ("sets with high upper bounds have
		// the potential for high semantic overlaps", §VI): the best
		// min(Workers, len) by the rule on hi, in that order.
		round := min(opts.Workers, len(pending))
		for w := 0; w < round; w++ {
			best := w
			for j := w + 1; j < len(pending); j++ {
				if a, b := pending[j], pending[best]; p.before(hi[a], a, hi[b], b) {
					best = j
				}
			}
			pending[w], pending[best] = pending[best], pending[w]
		}
		pending = pending[:round]
		if round == 1 {
			i := pending[0]
			res, took := g.verifyGid(survivors[i].setID, qN, cache, theta, base, &sc.verify[0])
			apply(i, res, took)
			continue
		}
		if ch == nil {
			ch = make(chan vres, opts.Workers)
		}
		for w, i := range pending {
			go func(ch chan<- vres, i int32, vs *verifyScratch) {
				res, took := g.verifyGid(survivors[i].setID, qN, cache, theta, base, vs)
				ch <- vres{i: i, res: res, took: took}
			}(ch, i, &sc.verify[w])
		}
		for range pending {
			v := <-ch
			apply(v.i, v.res, v.took)
		}
	}

	// Every survivor that never entered a graph matching was handled by the
	// No-EM side of post-processing (admitted by Lemma 7 or pruned by the
	// lazy UB check).
	stats.NoEM += n - stats.EMFull - stats.EMEarly

	if opts.ExactScores {
		for _, i := range lub {
			if flags[i]&postVerified != 0 {
				continue
			}
			// A result set is a proven top-k member, so its score is at
			// least θlb ≤ θ*k and the bounded verification can never
			// terminate early (the dual sum never drops below the score).
			res, took := g.verifyGid(survivors[i].setID, qN, cache, theta, base, &sc.verify[0])
			stats.VerifyTime += took
			stats.countVerify(res)
			stats.FinalizeEM++
			lb[i] = res.Score
			flags[i] |= postVerified
		}
	}
	slices.SortFunc(lub, func(a, b int32) int {
		switch {
		case p.before(lb[a], a, lb[b], b):
			return -1
		case p.before(lb[b], b, lb[a], a):
			return 1
		}
		return 0
	})
	out := sized(p.results, len(lub))
	for j, i := range lub {
		// A verified set's lb is its exact score.
		out[j] = Result{SetID: survivors[i].setID, Score: lb[i], Verified: flags[i]&postVerified != 0}
	}
	p.results = out
	return out, nil
}
