package core

import (
	"context"
	"unsafe"

	"repro/internal/pqueue"
)

// pruneEps guards every θlb pruning comparison against float64 noise: a set
// is pruned only when its upper bound is below θlb−pruneEps. Bounds and θlb
// can be sums of the same similarities accumulated in different orders, so
// exact ties may differ by a few ulps; without the slack a tie set could be
// wrongly eliminated (see matching.BoundEps for the same guard inside the
// Hungarian solver).
const pruneEps = 1e-9

// pruneEvery is the bucket-prune cadence in stream tuples; pruning also
// always runs when θlb improves.
const pruneEvery = 32

// ctxCheckEvery is the refinement loop's cancellation poll cadence in
// stream tuples (a power of two; the check is one atomic-ish ctx.Err call).
const ctxCheckEvery = 1024

// candState is the per-candidate refinement state: the incremental greedy
// lower bound (iLB, Lemma 5) and the corrected incremental upper bound
// (DESIGN.md §2). States live in one dense slice per partition, indexed by
// the candidate's partition-local position; the greedy matching masks
// (query elements and candidate-local token positions) live in bit arenas.
// All of it is carved from the search's pooled refineArena, so a warmed
// engine allocates none of it per search.
type candState struct {
	// ubSum is the sum of the first-seen (= maximum) similarities of the
	// candidate's distinct streamed tokens, capped at min(|Q|,|C|) terms.
	ubSum float64
	// lbScore is the partial greedy matching score plus the vanilla overlap
	// (identity tuples stream first, so exact matches enter the greedy
	// matching before anything else).
	lbScore float64
	// mRem is the number of matching slots not yet covered by ubSum terms;
	// iUB(C) = ubSum + mRem·s.
	mRem int32
	// tokRem is the number of the candidate's distinct tokens whose global
	// first arrival has not streamed yet. It sharpens the candidate's
	// remaining-gain bound to min(mRem, tokRem)·s — once a candidate's
	// whole token neighborhood has streamed, its upper bound is already
	// final regardless of the stream level. Only the lazy cut-off reads it
	// (the eager filters keep the paper's iUB semantics).
	tokRem int32
	// seen marks the state as initialized (the set has appeared in at least
	// one posting list).
	seen bool
	// pruned marks the candidate as eliminated; later tuples skip it.
	pruned bool
}

// survivor is a candidate that reached post-processing with its final
// refinement bounds.
type survivor struct {
	setID  int
	lb, ub float64
}

// partRefiner runs Algorithm 1 over one partition's CSR inverted index,
// consuming the token stream in one or more consecutive slices of the
// shared tuple arena: the pump feeds it block by block and reads alive
// between blocks to evaluate the cut-off condition, and a search without a
// cut-off feeds it the whole stream in a single consume call. Everything —
// candidate creation, bound accumulation, bucket-prune cadence — depends
// only on the global tuple index, so the two feeding disciplines produce
// bit-identical state for the same consumed prefix. All partitions consume
// the same tuples and share the global θlb through theta — across segments
// too, when the engine is one segment of a Group.
//
// dead is the segment's optional tombstone bitset, indexed by the engine's
// repository-local set IDs: a tombstoned set is discarded at first sight,
// before it is counted as a candidate or contributes any bound.
//
// The per-tuple/per-posting inner loop is free of map lookups and string
// comparisons: postings are flat int32 arenas, candidate state is a dense
// slice addressed through localOf, matched query elements are one bit per
// element in the qBits arena, and matched candidate tokens are one bit per
// candidate-local element position (carried by the posting entry) in the
// cBits arena.
type partRefiner struct {
	e     *Engine
	opts  *Options // the search's: Group.Opts
	p     int
	qN    int
	theta *atomicMax
	stats *Stats
	dead  []uint64

	states         []candState
	qBits, cBits   []uint64
	qWords         int
	buckets        iubBuckets
	llb            *pqueue.TopK
	lastPruneTheta float64
	// alive is the number of seen, unpruned candidates — the pool size the
	// lazy cut-off condition watches. Only valid between consume calls (the
	// pump reads it at block barriers).
	alive int
	// cardPtr walks the partition's descending-cardinality order past sets
	// that have streamed (or are tombstoned), so maxUnseenCard is the
	// cardinality bound for sets the stream has not touched yet.
	cardPtr int
	// memSids and memPoss receive a memtable engine's posting lists, which
	// are gathered from chains where a CSR index returns slices of its arena.
	memSids, memPoss []int32
}

// newPartRefiner prepares partition p's refinement state in its share of
// arena.
func (e *Engine) newPartRefiner(opts *Options, qN, p int, theta *atomicMax, stats *Stats, dead []uint64, arena *refineArena) *partRefiner {
	r := &partRefiner{
		e: e, opts: opts, p: p, qN: qN, theta: theta, stats: stats, dead: dead,
		qWords: (qN + 63) / 64,
	}
	// Candidate L's query mask occupies words [L·qWords, (L+1)·qWords) of
	// qBits and its token mask words [cOff[L], cOff[L+1]) of cBits.
	nCand := len(e.parts[p])
	arena.carve(r, nCand, min(qN, int(e.maxCard[p])), int(e.cOffs[p][nCand]))
	r.llb = pqueue.NewTopK(opts.K)
	return r
}

// consume processes tuples, whose first element sits at global stream
// position base. The loop polls ctx every ctxCheckEvery tuples and returns
// false once it is canceled (the refiner's state is then partial and must
// be discarded).
func (r *partRefiner) consume(ctx context.Context, tuples []streamTuple, base int) bool {
	e, opts := r.e, r.opts
	inv := e.invs[r.p]
	cOff := e.cOffs[r.p]
	states, qBits, cBits, qWords := r.states, r.qBits, r.cBits, r.qWords
	buckets, llb, theta, stats, dead := &r.buckets, r.llb, r.theta, r.stats, r.dead
	qN := r.qN

	markPruned := func(local int32) {
		states[local].pruned = true
		stats.IUBPruned++
		r.alive--
	}

	for i := range tuples {
		ti := base + i
		if ti&(ctxCheckEvery-1) == ctxCheckEvery-1 && ctx.Err() != nil {
			return false
		}
		tup := &tuples[i]
		s := tup.sim
		var sids, poss []int32
		if inv != nil {
			sids, poss = inv.Postings(tup.tokenID)
		} else {
			r.memSids, r.memPoss = e.mem.Postings(tup.tokenID, r.memSids, r.memPoss)
			sids, poss = r.memSids, r.memPoss
		}
		for pi, sid := range sids {
			local := e.localOf[sid]
			st := &states[local]
			if !st.seen {
				st.seen = true
				// Tombstone-aware candidate creation: a deleted set is
				// discarded before it counts as a candidate or touches any
				// top-k structure.
				if dead != nil && dead[sid>>6]&(1<<(uint(sid)&63)) != 0 {
					st.pruned = true
					continue
				}
				stats.Candidates++
				slots := int32(qN)
				if c := e.card[sid]; c < slots {
					slots = c
				}
				st.mRem = slots
				st.tokRem = e.card[sid]
				// UB-Filter at first sight (Lemma 2): the first tuple for a
				// set carries its maximum element similarity, so
				// UB(C) = min(|Q|,|C|)·s.
				if !opts.DisableIUB {
					if t := theta.Load(); t > 0 && float64(slots)*s < t-pruneEps {
						st.pruned = true
						stats.IUBPruned++
						continue
					}
					buckets.insert(local, int(slots), 0)
				}
				r.alive++
			}
			if st.pruned {
				continue
			}
			// Incremental upper bound: count the token's maximum similarity
			// once, while slots remain (the stream is descending, so the
			// first min(|Q|,|C|) distinct tokens carry the largest sums).
			if tup.first {
				st.tokRem--
				if st.mRem > 0 {
					st.ubSum += s
					st.mRem--
				}
			}
			// Incremental greedy lower bound (iLB): take the edge iff both
			// endpoints are unmatched (Lemma 5).
			qw := int(local)*qWords + int(tup.qIdx)>>6
			qbit := uint64(1) << (uint(tup.qIdx) & 63)
			if qBits[qw]&qbit == 0 {
				cw := int(cOff[local]) + int(poss[pi])>>6
				cbit := uint64(1) << (uint(poss[pi]) & 63)
				if cBits[cw]&cbit == 0 {
					qBits[qw] |= qbit
					cBits[cw] |= cbit
					st.lbScore += s
					if llb.Update(int(sid), st.lbScore) {
						theta.Update(llb.Bottom())
					}
				}
			}
		}
		if !opts.DisableIUB {
			// Bucket prune: eager when θlb improved, periodic otherwise
			// (pruning is an optimization — correctness never depends on
			// when it runs, and the final drain re-checks every survivor).
			t := theta.Load()
			if t > r.lastPruneTheta || ti%pruneEvery == pruneEvery-1 {
				r.lastPruneTheta = t
				buckets.prune(s, t-pruneEps, states, markPruned)
			}
		}
	}
	return true
}

// drain emits the survivors after the stream is exhausted: every unseen
// element contributes nothing (its similarities are all below α), so the
// final upper bound tightens to ubSum and is re-checked against the final
// θlb.
func (r *partRefiner) drain() []survivor {
	finalTheta := r.theta.Load()
	part := r.e.parts[r.p]
	var out []survivor
	for local := range r.states {
		st := &r.states[local]
		if !st.seen || st.pruned {
			continue
		}
		if !r.opts.DisableIUB && finalTheta > 0 && st.ubSum < finalTheta-pruneEps {
			r.stats.IUBPruned++
			continue
		}
		out = append(out, survivor{setID: part[local], lb: st.lbScore, ub: st.ubSum})
	}
	r.accountMem()
	return out
}

// replayPool is phase one of a cut-off search's survivor reconstruction:
// every alive candidate's refinement bounds are replayed to their
// full-stream values (tailBounds) and the full lower bounds are offered
// to the partition's Llb exactly as the eager tail would have — after every
// partition has done this, the global θlb holds its eager final value
// (DESIGN.md §10 spells out why frozen and tail candidates cannot move it).
// filterPool then applies the eager drain check under that final θlb.
//
// Candidates whose sharpened remaining-gain bound ubSum+min(mRem,tokRem)·level
// already falls below the cut-time θlb are certified eager-pruned without a
// replay: their full upper bound cannot reach the final θlb either, and
// their full lower bound sits below it, so skipping their Llb offer cannot
// move the reconstructed θlb (same frozen-offer argument).
func (r *partRefiner) replayPool(edgesOf func(int32) []qEdge, qids []int32, level, thetaCut float64, at cutPoint, rs *replayScratch) []survivor {
	part := r.e.parts[r.p]
	var out []survivor
	for local := range r.states {
		st := &r.states[local]
		if !st.seen || st.pruned {
			continue
		}
		if rem := min(st.mRem, st.tokRem); thetaCut > 0 && st.ubSum+float64(rem)*level < thetaCut-pruneEps {
			r.stats.IUBPruned++
			continue
		}
		sid := part[local]
		lb, ub := r.tailBounds(int32(local), edgesOf, qids, at, rs)
		out = append(out, survivor{setID: sid, lb: lb, ub: ub})
		if r.llb.Update(sid, lb) {
			r.theta.Update(r.llb.Bottom())
		}
	}
	r.accountMem()
	return out
}

// filterPool applies the eager drain's final upper-bound check to the
// replayed pool: candidates whose full-stream ubSum falls below the final
// θlb are exactly the ones the eager tail would have pruned (mid-stream or
// at drain — the timing cannot matter, only the final values do).
func (r *partRefiner) filterPool(pool []survivor, finalTheta float64) []survivor {
	out := pool[:0]
	for _, sv := range pool {
		if finalTheta > 0 && sv.ub < finalTheta-pruneEps {
			r.stats.IUBPruned++
			continue
		}
		out = append(out, sv)
	}
	return out
}

// maxUnseenCard returns the largest cardinality among the partition's sets
// the stream has not yet touched — the sharp version of the Lemma 2 bound
// the cut-off condition uses: a set already seen is either a pool member or
// pruned, so only unseen cardinalities can still spawn candidates. The
// pointer only advances (seen is permanent), costing amortized O(|part|)
// per query. Tombstoned sets are skipped: they can never become candidates.
func (r *partRefiner) maxUnseenCard() int32 {
	e, part, order := r.e, r.e.parts[r.p], r.e.cardOrder[r.p]
	for r.cardPtr < len(order) {
		local := order[r.cardPtr]
		if !r.states[local].seen {
			sid := part[local]
			if r.dead == nil || r.dead[sid>>6]&(1<<(uint(sid)&63)) == 0 {
				return e.card[sid]
			}
		}
		r.cardPtr++
	}
	return 0
}

func (r *partRefiner) accountMem() {
	r.stats.MemCandBytes += int64(len(r.states))*int64(unsafe.Sizeof(candState{})) +
		int64(len(r.qBits)+len(r.cBits))*8 + r.buckets.footprintBytes()
}
