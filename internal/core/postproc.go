package core

import (
	"context"
	"slices"

	"repro/internal/matching"
	"repro/internal/pqueue"
)

// ubEntry orders the post-processing priority queue Qub by upper bound.
// sid is a set ID to the string-keyed oracle of the tests; postproc files a
// survivor under its index in set-ID order, which breaks ties the same way.
type ubEntry struct {
	ub  float64
	sid int
}

func ubMore(a, b ubEntry) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	return a.sid < b.sid
}

// A survivor's post-processing flags.
const (
	postChecked  uint8 = 1 << iota // its place in the result is settled: verified, or admitted by No-EM
	postDropped                    // out of the result, certified by ub < θlb or by Lemma 8
	postVerified                   // lb holds its exact semantic overlap
)

// postScratch is the pooled memory of one search's post-processing: the
// merged survivors and Algorithm 2's state over them, addressed by a
// survivor's index in set-ID order.
type postScratch struct {
	survivors []survivor
	ub, lb    []float64
	flags     []uint8
	qub       []ubEntry
	lub       []int32
	pending   []int32
	results   []Result
}

// verifyGid runs the exact verification of the set with group-wide ID gid.
func (g *Group) verifyGid(gid, qN int, cache *edgeCache, theta *atomicMax, base []int, vs *verifyScratch) matching.Result {
	eng, _, local := g.locate(gid, base)
	return eng.verify(&g.Opts, qN, cache, eng.repo.Set(local), theta, vs)
}

// sortResults orders results by descending score, ascending set ID.
func sortResults(results []Result) {
	slices.SortFunc(results, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return a.SetID - b.SetID
	})
}

// postproc runs Algorithm 2 over the refinement survivors (merged across
// all partitions and segments — they already share the global θlb).
// Survivor set IDs are group-wide dense IDs (base[seg]+local); locate
// resolves them back to a segment engine for verification. It sorts the
// survivors by set ID and keeps everything it knows about one — bounds,
// flags — in arrays under its index, so that "lowest set ID first" is
// "lowest index first" and no step hashes a set ID. It maintains
//
//   - Lub, the running top-k list by upper bound (its bottom is θub): the
//     members' indices in ascending order, each scored by its current ub;
//   - Qub, a priority queue of the remaining sets by upper bound;
//   - Llb (rebuilt from survivor lower bounds), whose bottom feeds the
//     global θlb as verifications complete.
//
// Invariant: every alive set outside Lub has an upper bound no larger than
// any upper bound in Lub. Lub's least upper bound therefore equals the k-th
// largest upper bound over all alive sets, which is what Lemma 7's No-EM
// test requires.
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
func (g *Group) postproc(ctx context.Context, qN int, cache *edgeCache, survivors []survivor, llb *pqueue.TopK, theta *atomicMax, stats *Stats, base []int, sc *queryScratch) ([]Result, error) {
	opts := &g.Opts
	k, n := opts.K, len(survivors)
	slots := min(k, n)
	slices.SortFunc(survivors, func(a, b survivor) int { return a.setID - b.setID })

	p := &sc.post
	p.ub, p.lb, p.flags = sized(p.ub, n), sized(p.lb, n), zeroed(p.flags, n)
	p.qub, p.lub, p.pending = sized(p.qub, n), sized(p.lub, slots), sized(p.pending, slots)
	ub, lb, flags := p.ub, p.lb, p.flags
	for i, sv := range survivors {
		ub[i], lb[i] = sv.ub, sv.lb
		p.qub[i] = ubEntry{ub: sv.ub, sid: i}
	}
	// Verification re-queues a survivor only after its entry was popped into
	// Lub, so the queue never outgrows the n entries it starts with.
	qub := pqueue.NewHeapFrom(p.qub, ubMore)
	lub, pending := p.lub[:0], p.pending[:0]
	stats.MemPostprocBytes += int64(n)*(8+8+1+16) + int64(slots)*(4+4)

	refill := func() {
		for len(lub) < k && qub.Len() > 0 {
			top := qub.Pop()
			i := int32(top.sid)
			j, inLub := slices.BinarySearch(lub, i)
			if inLub || flags[i]&postDropped != 0 || top.ub != ub[i] {
				continue // dropped or stale entry
			}
			if t := theta.Load(); top.ub < t-pruneEps {
				flags[i] |= postDropped // lazy UB prune, certified by ub < θlb
				continue
			}
			lub = slices.Insert(lub, j, i)
		}
	}

	apply := func(i int32, res matching.Result) {
		stats.HungarianIterations += res.Iterations
		stats.VerifyCalls++
		if res.Skipped {
			stats.HungarianSkipped++
		}
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
		lb[i] = so
		if llb.Update(survivors[i].setID, so) {
			theta.Update(llb.Bottom())
		}
		ub[i] = so
		qub.Push(ubEntry{ub: so, sid: int(i)})
	}

	// Parallel verification with a shared, live θlb: results are applied as
	// they complete, so a finished matching can raise θlb and early-terminate
	// its in-flight peers (§VI). Each round sends exactly len(pending) ≤
	// Workers results, so the channel never blocks a sender.
	type vres struct {
		i   int32
		res matching.Result
	}
	var ch chan vres

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refill()
		// Cheap passes first: lazy UB pruning of Lub members and the No-EM
		// admission test (Lemma 7), lowest set ID first. Restart the scan
		// after any mutation so θub is re-read consistently.
		mutated := false
		t := theta.Load()
		// θub is Lub's least upper bound while Lub is full. A scan that takes
		// a member out leaves it short until the next refill.
		full, thetaUB := len(lub) == k, 0.0
		if full {
			thetaUB = ub[lub[0]]
			for _, i := range lub[1:] {
				thetaUB = min(thetaUB, ub[i])
			}
		}
		for j := 0; j < len(lub); {
			i := lub[j]
			if ub[i] < t-pruneEps {
				lub = slices.Delete(lub, j, j+1)
				flags[i] |= postDropped
				mutated, full = true, false
				continue
			}
			j++
			if flags[i]&postChecked != 0 {
				continue
			}
			// When Lub is not full after refill, Qub is empty: every alive
			// candidate is already in Lub and is part of the result.
			if !full || (!opts.DisableNoEM && lb[i] >= thetaUB) {
				flags[i] |= postChecked
				mutated = true
			}
		}
		if mutated {
			continue
		}
		pending = pending[:0]
		for _, i := range lub {
			if flags[i]&postChecked == 0 {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			break
		}
		// Verify the highest-upper-bound sets first ("sets with high upper
		// bounds have the potential for high semantic overlaps", §VI): the
		// best min(Workers, len) by (ub desc, set ID asc), in that order.
		round := min(opts.Workers, len(pending))
		for w := 0; w < round; w++ {
			best := w
			for j := w + 1; j < len(pending); j++ {
				a, b := pending[j], pending[best]
				if ub[a] > ub[b] || (ub[a] == ub[b] && a < b) {
					best = j
				}
			}
			pending[w], pending[best] = pending[best], pending[w]
		}
		pending = pending[:round]
		if round == 1 {
			i := pending[0]
			apply(i, g.verifyGid(survivors[i].setID, qN, cache, theta, base, &sc.verify[0]))
			continue
		}
		if ch == nil {
			ch = make(chan vres, opts.Workers)
		}
		for w, i := range pending {
			go func(ch chan<- vres, i int32, vs *verifyScratch) {
				ch <- vres{i: i, res: g.verifyGid(survivors[i].setID, qN, cache, theta, base, vs)}
			}(ch, i, &sc.verify[w])
		}
		for range pending {
			v := <-ch
			apply(v.i, v.res)
		}
	}

	// Every survivor that never entered a graph matching was handled by the
	// No-EM side of post-processing (admitted by Lemma 7 or pruned by the
	// lazy UB check).
	stats.NoEM += n - stats.EMFull - stats.EMEarly

	out := sized(p.results, len(lub))
	for j, i := range lub {
		// A verified set's lb is its exact score.
		out[j] = Result{SetID: survivors[i].setID, Score: lb[i], Verified: flags[i]&postVerified != 0}
	}
	p.results = out
	sortResults(out)
	return out, nil
}
