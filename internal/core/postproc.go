package core

import (
	"context"
	"sort"

	"repro/internal/matching"
	"repro/internal/pqueue"
)

// ubEntry orders the post-processing priority queue Qub by upper bound.
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

// postproc runs Algorithm 2 over the refinement survivors (merged across
// all partitions and segments — they already share the global θlb).
// Survivor set IDs are group-wide dense IDs (base[seg]+local); locate
// resolves them back to a segment engine for verification. It maintains
//
//   - Lub, the running top-k list by upper bound (its bottom is θub);
//   - Qub, a priority queue of the remaining sets by upper bound;
//   - Llb (rebuilt from survivor lower bounds), whose bottom feeds the
//     global θlb as verifications complete.
//
// Invariant: every alive set outside Lub has an upper bound no larger than
// any score stored in Lub. Lub.Bottom() therefore equals the k-th largest
// upper bound over all alive sets, which is what Lemma 7's No-EM test
// requires.
//
// ctx is polled once per round of the outer loop; on cancellation postproc
// returns ctx's error (in-flight verifications of the current round finish
// first — they are bounded by the dual-sum filter).
//
// scratch holds one verifyScratch per verification worker (opts.Workers of
// them): the i-th verification of a round runs on scratch[i], and a round is
// fully collected before the next starts, so no scratch is ever shared.
func (g *Group) postproc(ctx context.Context, qN int, cache *edgeCache, survivors []survivor, llb *pqueue.TopK, theta *atomicMax, stats *Stats, base []int, scratch []verifyScratch) ([]Result, error) {
	opts := g.Engines[0].opts
	verifyGid := func(gid int, vs *verifyScratch) matching.Result {
		eng, _, local := g.locate(gid, base)
		return eng.verify(qN, cache, eng.repo.Set(local), theta, vs)
	}
	k := opts.K
	ub := make(map[int]float64, len(survivors))
	lb := make(map[int]float64, len(survivors))
	verified := make(map[int]float64)
	checked := make(map[int]bool)
	dropped := make(map[int]bool)

	lub := pqueue.NewTopK(k)
	qub := pqueue.NewHeap[ubEntry](ubMore)
	for _, sv := range survivors {
		ub[sv.setID] = sv.ub
		lb[sv.setID] = sv.lb
		qub.Push(ubEntry{ub: sv.ub, sid: sv.setID})
	}
	stats.MemPostprocBytes += int64(len(survivors))*96 + int64(k)*48

	refill := func() {
		for lub.Len() < k && qub.Len() > 0 {
			top := qub.Pop()
			if dropped[top.sid] || lub.Contains(top.sid) || top.ub != ub[top.sid] {
				continue // dropped or stale entry
			}
			if t := theta.Load(); top.ub < t-pruneEps {
				dropped[top.sid] = true // lazy UB prune, certified by ub < θlb
				continue
			}
			lub.Update(top.sid, top.ub)
		}
	}

	apply := func(sid int, res matching.Result) {
		stats.HungarianIterations += res.Iterations
		stats.VerifyCalls++
		if res.Skipped {
			stats.HungarianSkipped++
		}
		if res.Pruned {
			// Label sum fell below θlb: SO(sid) < θlb ≤ θ*k (Lemma 8).
			stats.EMEarly++
			lub.Remove(sid)
			dropped[sid] = true
			return
		}
		stats.EMFull++
		so := res.Score
		verified[sid] = so
		checked[sid] = true
		lb[sid] = so
		if llb.Update(sid, so) {
			theta.Update(llb.Bottom())
		}
		// Re-queue with the exact score; refill decides whether it still
		// belongs to Lub (Alg. 2 lines 10–15).
		lub.Remove(sid)
		ub[sid] = so
		qub.Push(ubEntry{ub: so, sid: sid})
	}

	// Parallel verification with a shared, live θlb: results are applied as
	// they complete, so a finished matching can raise θlb and early-terminate
	// its in-flight peers (§VI). Each round sends exactly len(pending) ≤
	// Workers results, so the channel never blocks a sender.
	type vres struct {
		sid int
		res matching.Result
	}
	ch := make(chan vres, opts.Workers)
	pending := make([]int, 0, k)

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refill()
		// Cheap passes first: lazy UB pruning of Lub members and the No-EM
		// admission test (Lemma 7). Restart the scan after any mutation so
		// θub is re-read consistently.
		mutated := false
		keys := lub.Keys()
		sort.Ints(keys)
		t := theta.Load()
		for _, key := range keys {
			if ub[key] < t-pruneEps {
				lub.Remove(key)
				dropped[key] = true
				mutated = true
				continue
			}
			if checked[key] {
				continue
			}
			// When Lub is not full after refill, Qub is empty: every alive
			// candidate is already in Lub and is part of the result.
			if !lub.Full() || (!opts.DisableNoEM && lb[key] >= lub.Bottom()) {
				checked[key] = true
				mutated = true
			}
		}
		if mutated {
			continue
		}
		pending = pending[:0]
		for _, key := range lub.Keys() {
			if !checked[key] {
				pending = append(pending, key)
			}
		}
		if len(pending) == 0 {
			break
		}
		// Verify the highest-upper-bound sets first ("sets with high upper
		// bounds have the potential for high semantic overlaps", §VI).
		sort.Slice(pending, func(i, j int) bool {
			if ub[pending[i]] != ub[pending[j]] {
				return ub[pending[i]] > ub[pending[j]]
			}
			return pending[i] < pending[j]
		})
		if len(pending) > opts.Workers {
			pending = pending[:opts.Workers]
		}
		if len(pending) == 1 {
			sid := pending[0]
			apply(sid, verifyGid(sid, &scratch[0]))
			continue
		}
		for i, sid := range pending {
			go func(sid int, vs *verifyScratch) {
				ch <- vres{sid: sid, res: verifyGid(sid, vs)}
			}(sid, &scratch[i])
		}
		for range pending {
			v := <-ch
			apply(v.sid, v.res)
		}
	}

	// Every survivor that never entered a graph matching was handled by the
	// No-EM side of post-processing (admitted by Lemma 7 or pruned by the
	// lazy UB check).
	stats.NoEM += len(survivors) - stats.EMFull - stats.EMEarly

	keys := lub.Keys()
	sort.Ints(keys)
	out := make([]Result, 0, len(keys))
	for _, key := range keys {
		if so, ok := verified[key]; ok {
			out = append(out, Result{SetID: key, Score: so, Verified: true})
		} else {
			out = append(out, Result{SetID: key, Score: lb[key], Verified: false})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].SetID < out[j].SetID
	})
	return out, nil
}
