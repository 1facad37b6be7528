package core

import (
	"context"
	"math"
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
// lower bound (iLB, Lemma 5) and the two sides of the corrected incremental
// upper bound (DESIGN.md §2). States live in one dense slice per engine,
// indexed by the set ID the posting carries; the greedy matching masks and
// the query elements' arrival marks live in bit arenas, and whether a set is
// a candidate at all in one status byte per set (setUnseen, setLive,
// setPruned). All of it is carved from the search's pooled refineArena, so a
// warmed engine allocates none of it per search. Only the status bytes start
// zeroed: a set's state and masks are written when the walk admits it.
type candState struct {
	// ubSum is the column side: the sum of the first-seen (= maximum)
	// similarities of the candidate's distinct streamed tokens, capped at
	// min(|Q|,|C|) terms.
	ubSum float64
	// rowSum is the query side: the sum of the similarities with which query
	// elements first reached the candidate (= each one's maximum into it),
	// capped at min(|Q|,|C|) terms.
	rowSum float64
	// lbScore is the partial greedy matching score plus the vanilla overlap
	// (identity tuples stream first, so exact matches enter the greedy
	// matching before anything else).
	lbScore float64
	// mRem and rRem are the matching slots not yet covered by ubSum and by
	// rowSum terms; iUB(C) = min(ubSum + mRem·s, rowSum + rRem·s).
	mRem, rRem int32
}

// A set's status byte. Partitions own disjoint set-ID ranges, so each
// refiner writes only its own bytes.
const (
	setUnseen uint8 = iota // no posting of the set has been met yet
	setLive                // a candidate: its candState and masks are written
	setPruned              // pruned, settled or tombstoned; later postings skip it
)

// bound returns the corrected iUB at stream level s (DESIGN.md §2) and its
// column side alone, which tells whether the query side decided a prune.
func (st *candState) bound(s float64) (iub, col float64) {
	col = st.ubSum + float64(st.mRem)*s
	return min(col, st.rowSum+float64(st.rRem)*s), col
}

// qWord is one word of a candidate's query masks: matched holds the greedy
// matching's query elements, seen the elements that have reached the
// candidate — kept while rowSum has slots left, which is as long as anything
// reads it. The two sit side by side so that a posting entry reads both from
// one cache line.
type qWord struct {
	matched, seen uint64
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
// slice indexed by set ID, matched and arrived query elements are one bit
// each per element in the qBits arena, and matched candidate tokens are one
// bit per candidate-local element position (carried by the posting entry) in
// the cBits arena. All of them are the engine's share of the search's
// refineArena, shared with its other partitions' refiners: each reads and
// writes only the indices of its own sets.
type partRefiner struct {
	e     *Engine
	opts  *Options // the search's: Group.Opts
	part  *partition
	qN    int
	theta *atomicMax
	stats *Stats
	dead  []uint64

	arenaShare
	buckets        *iubBuckets
	llb            *pqueue.TopK
	lastPruneTheta float64
	// alive is the number of candidates admitted at first sight and not
	// pruned by the buckets — the pool size the lazy cut-off condition
	// watches. A candidate the stream-wide bound settles stays in it, as it
	// would without the bound until the buckets pruned it, so the bound
	// never lets the cut fire earlier (DESIGN.md §2). Only valid between
	// consume calls (the pump reads it at block barriers).
	alive int
	// cardPtr walks the partition's descending-cardinality order past sets
	// that have streamed (or are tombstoned), so maxUnseenCard is the
	// cardinality bound for sets the stream has not touched yet.
	cardPtr int
	// rs is the refiner's pooled working memory.
	rs *refinerScratch
	// skip reports that addBounds filled the stream-wide set bounds, which
	// turns the posting skip on (DESIGN.md §2).
	skip bool
}

// settledBound marks a set refinement has pruned, whether the bound or the
// walk decided it: below every θlb, so consume skips its postings without
// another look.
const settledBound = -1

// addBounds adds each token's maximum, in the order of maxima, to the bound
// of every set of the partition holding it, while the set has fewer than |Q|
// terms — and it has at most |C|, one posting per distinct token — so a
// set's bound is its column side ubSum once the whole stream has gone by,
// formed from the same floats in the same order (DESIGN.md §2).
func (r *partRefiner) addBounds(maxima []tokenMax) {
	e, inv := r.e, r.part.inv
	bound, terms, qN := r.bound, r.terms, int32(r.qN)
	rs := r.rs
	for _, tm := range maxima {
		var sids []int32
		if inv != nil {
			sids, _ = inv.Postings(tm.id)
		} else {
			rs.memSids, rs.memPoss = e.mem.Postings(tm.id, rs.memSids, rs.memPoss)
			sids = rs.memSids
		}
		for _, sid := range sids {
			if terms[sid] < qN {
				bound[sid] += tm.sim
				terms[sid]++
			}
		}
	}
	r.skip = true
}

// keepBounded returns the postings of sids/poss whose set's bound reaches
// below = θlb − pruneEps, in their order, and settles every set it drops for
// the first time; s is the tuple's level. A set whose stream-wide bound is
// below θlb can no longer matter, so its postings are passed over before its
// state is read. The keep test is a conditional move and the settle test is
// taken once per set, so neither costs a mispredicted branch per posting.
func (r *partRefiner) keepBounded(sids, poss []int32, below, s float64) ([]int32, []int32) {
	rs := r.rs
	ks, kp, fs := sized(rs.keptSids, len(sids)), sized(rs.keptPoss, len(sids)), sized(rs.settling, len(sids))
	rs.keptSids, rs.keptPoss, rs.settling = ks, kp, fs
	n, f := partitionPostings(sids, poss, r.bound, below, ks, kp, fs)
	for _, sid := range fs[:f] {
		r.settle(sid, s, below)
		r.bound[sid] = settledBound
	}
	return ks[:n], kp[:n]
}

// partitionPostings copies to ks/kp, in order, the postings whose set's
// bound is at least below, and to fs the sets of the others whose bound is
// not yet settledBound; it returns how many of each it wrote. ks, kp and fs
// hold len(sids) elements. Every store is unconditional and the counts move
// by conditional moves, so the loop has no branch that depends on the data.
func partitionPostings(sids, poss []int32, bound []float64, below float64, ks, kp, fs []int32) (n, f int) {
	poss, ks, kp, fs = poss[:len(sids)], ks[:len(sids)], kp[:len(sids)], fs[:len(sids)]
	fresh := math.Float64bits(below) // a bound in [0, below) has smaller bits
	for i, sid := range sids {
		b := bound[sid]
		ks[n], kp[n], fs[f] = sid, poss[i], sid
		if b >= below {
			n++
		}
		if math.Float64bits(b) < fresh {
			f++
		}
	}
	return n, f
}

// settle prunes set sid at the first posting consume skips for it, met at
// level s under below = θlb − pruneEps: its bound is below θlb, so it can
// reach neither the top-k nor θlb. It is counted as the walk would have
// counted it in the end — a first sight as a candidate pruned by the iUB, a
// live candidate as an iUB prune on the column side, a tombstoned set not at
// all — and a first sight the Lemma 2 filter would have admitted joins alive.
// A set settled at first sight never has its state written.
func (r *partRefiner) settle(sid int32, s, below float64) {
	unseen := r.flags[sid] == setUnseen // else live: a pruned set holds settledBound
	r.flags[sid] = setPruned
	if unseen {
		if r.dead != nil && r.dead[sid>>6]&(1<<(uint(sid)&63)) != 0 {
			return
		}
		r.stats.Candidates++
		if slots := min(int32(r.qN), r.e.card[sid]); float64(slots)*s >= below {
			r.alive++
		}
	}
	r.stats.IUBPruned++
	r.stats.BoundSettled++
}

// newPartRefiner prepares partition p's refinement state in share, the
// engine's share of the search's arena, its buckets in score and rs's
// pooled heaps, and the refiner in rs, which becomes its working memory.
func (e *Engine) newPartRefiner(opts *Options, qN, p int, theta *atomicMax, stats *Stats, dead []uint64, share *arenaShare, score []float64, rs *refinerScratch) *partRefiner {
	part := &e.parts[p]
	rs.buckets.reset(min(qN, int(part.maxCard)), score)
	rs.llb.Reset(opts.K)
	rs.kept, rs.ties = 0, 0
	rs.r = partRefiner{
		e: e, opts: opts, part: part, qN: qN, theta: theta, stats: stats, dead: dead,
		arenaShare: *share,
		buckets:    &rs.buckets,
		llb:        &rs.llb,
		rs:         rs,
	}
	return &rs.r
}

// consume processes tuples, whose first element sits at global stream
// position base. The loop polls ctx every ctxCheckEvery tuples and returns
// false once it is canceled (the refiner's state is then partial and must
// be discarded).
func (r *partRefiner) consume(ctx context.Context, tuples []streamTuple, base int) bool {
	e, opts := r.e, r.opts
	inv, cOff := r.part.inv, e.cOff
	states, flags, qBits, cBits, qWords := r.states, r.flags, r.qBits, r.cBits, r.qWords
	buckets, llb, theta, stats, dead := r.buckets, r.llb, r.theta, r.stats, r.dead
	qN := r.qN
	bound := r.bound
	walked, skipped := 0, 0

	// Every set the walk prunes is settled as well, so keepBounded passes
	// over its later postings.
	markPruned := func(sid int32, byQuery bool) {
		flags[sid] = setPruned
		bound[sid] = settledBound
		stats.IUBPruned++
		if byQuery {
			stats.IUBQueryPruned++
		}
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
			rs := r.rs
			rs.memSids, rs.memPoss = e.mem.Postings(tup.tokenID, rs.memSids, rs.memPoss)
			sids, poss = rs.memSids, rs.memPoss
		}
		walked += len(sids)
		if below := theta.Load() - pruneEps; r.skip && below > 0 {
			n := len(sids)
			sids, poss = r.keepBounded(sids, poss, below, s)
			skipped += n - len(sids)
		}
		for pi, sid := range sids {
			switch flags[sid] {
			case setPruned:
				continue
			case setUnseen:
				// Tombstone-aware candidate creation: a deleted set is
				// discarded before it counts as a candidate or touches any
				// top-k structure.
				if dead != nil && dead[sid>>6]&(1<<(uint(sid)&63)) != 0 {
					flags[sid], bound[sid] = setPruned, settledBound
					continue
				}
				stats.Candidates++
				slots := min(int32(qN), e.card[sid])
				// UB-Filter at first sight (Lemma 2): the first tuple for a
				// set carries its maximum element similarity, so
				// UB(C) = min(|Q|,|C|)·s.
				if !opts.DisableIUB {
					if t := theta.Load(); t > 0 && float64(slots)*s < t-pruneEps {
						flags[sid], bound[sid] = setPruned, settledBound
						stats.IUBPruned++
						continue
					}
				}
				// Admitted: its state and masks are written now, and only now.
				flags[sid] = setLive
				states[sid] = candState{mRem: slots, rRem: slots}
				clear(qBits[int(sid)*qWords : (int(sid)+1)*qWords])
				clear(cBits[cOff[sid]:cOff[sid+1]])
				if !opts.DisableIUB {
					buckets.file(sid, &states[sid])
				}
				r.alive++
			}
			st := &states[sid]
			// Incremental upper bound: count the token's maximum similarity
			// once, while slots remain (the stream is descending, so the
			// first min(|Q|,|C|) distinct tokens carry the largest sums).
			if tup.first && st.mRem > 0 {
				st.ubSum += s
				st.mRem--
			}
			// The query side: the query element's first arrival into the
			// candidate is its best edge into it; count it while slots
			// remain.
			qw := &qBits[int(sid)*qWords+int(tup.qIdx)>>6]
			qbit := uint64(1) << (uint(tup.qIdx) & 63)
			if st.rRem > 0 && qw.seen&qbit == 0 {
				qw.seen |= qbit
				st.rowSum += s
				st.rRem--
			}
			// Incremental greedy lower bound (iLB): take the edge iff both
			// endpoints are unmatched (Lemma 5).
			if qw.matched&qbit == 0 {
				cw := int(cOff[sid]) + int(poss[pi])>>6
				cbit := uint64(1) << (uint(poss[pi]) & 63)
				if cBits[cw]&cbit == 0 {
					qw.matched |= qbit
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
				buckets.prune(s, t-pruneEps, states, flags, markPruned)
			}
		}
	}
	stats.Postings += walked
	stats.PostingsSkipped += skipped
	return true
}

// drain emits the survivors after the stream is exhausted: every unseen
// element contributes nothing (its similarities are all below α), so the
// final upper bound tightens to min(ubSum, rowSum) and is re-checked against
// the final θlb.
func (r *partRefiner) drain() []survivor {
	finalTheta := r.theta.Load()
	out := r.rs.surv[:0]
	for sid := r.part.lo; sid < r.part.hi; sid++ {
		if r.flags[sid] != setLive {
			continue
		}
		st := &r.states[sid]
		ub, col := st.bound(0)
		if !r.opts.DisableIUB && r.pruneAtEnd(ub, col, finalTheta) {
			continue
		}
		out = append(out, survivor{setID: int(sid), lb: st.lbScore, ub: ub})
	}
	r.rs.surv = out
	r.accountMem()
	return out
}

// pruneAtEnd counts and reports a candidate whose upper bound ub falls below
// θlb; col is the bound's column side.
func (r *partRefiner) pruneAtEnd(ub, col, theta float64) bool {
	if theta <= 0 || ub >= theta-pruneEps {
		return false
	}
	r.stats.IUBPruned++
	if col >= theta-pruneEps {
		r.stats.IUBQueryPruned++
	}
	return true
}

// replayPool is phase one of a cut-off search's survivor reconstruction:
// every alive candidate's refinement bounds are replayed to their
// full-stream values (tailBounds) and the full lower bounds are offered
// to the partition's Llb exactly as the eager tail would have — after every
// partition has done this, the global θlb holds its eager final value
// (DESIGN.md §10 spells out why frozen and tail candidates cannot move it).
// filterPool then applies the eager drain check under that final θlb.
//
// Candidates whose stream-wide bound (DESIGN.md §2), or else whose bound at
// the cut level, already falls below the cut-time θlb are certified
// eager-pruned without a replay: their full upper bound cannot reach the
// final θlb either, and their full lower bound sits below it, so skipping
// their Llb offer cannot move the reconstructed θlb (same frozen-offer
// argument). The stream-wide bound is the full column side, so its prunes
// count on that side. rs.colUB keeps, beside each survivor, the full column
// side filterPool attributes its prunes by.
func (r *partRefiner) replayPool(edgesOf func(int32) []qEdge, qids []int32, level, thetaCut float64, at cutPoint) []survivor {
	rs := r.rs
	out := rs.surv[:0]
	rs.colUB = rs.colUB[:0]
	for sid := r.part.lo; sid < r.part.hi; sid++ {
		if r.flags[sid] != setLive {
			continue
		}
		st := &r.states[sid]
		if b := r.bound[sid]; r.skip && r.pruneAtEnd(b, b, thetaCut) {
			r.stats.BoundCertified++
			r.bound[sid] = settledBound
			continue
		}
		if iub, col := st.bound(level); r.pruneAtEnd(iub, col, thetaCut) {
			continue
		}
		lb, ub, colFull := r.tailBounds(sid, edgesOf, qids, at)
		out = append(out, survivor{setID: int(sid), lb: lb, ub: ub})
		rs.colUB = append(rs.colUB, colFull)
		if r.llb.Update(int(sid), lb) {
			r.theta.Update(r.llb.Bottom())
		}
	}
	rs.surv = out
	r.accountMem()
	return out
}

// filterPool applies the eager drain's final upper-bound check to the
// replayed pool: candidates whose full-stream bound falls below the final
// θlb are exactly the ones the eager tail would have pruned (mid-stream or
// at drain — the timing cannot matter, only the final values do).
func (r *partRefiner) filterPool(pool []survivor, finalTheta float64) []survivor {
	out := pool[:0]
	for i, sv := range pool {
		if r.pruneAtEnd(sv.ub, r.rs.colUB[i], finalTheta) {
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
// pointer only advances (no set returns to setUnseen), costing amortized
// O(|part|) per query. Tombstoned sets are skipped: they can never become
// candidates.
func (r *partRefiner) maxUnseenCard() int32 {
	order := r.part.order
	for r.cardPtr < len(order) {
		sid := order[r.cardPtr]
		if r.flags[sid] == setUnseen && (r.dead == nil || r.dead[sid>>6]&(1<<(uint(sid)&63)) == 0) {
			return r.e.card[sid]
		}
		r.cardPtr++
	}
	return 0
}

// accountMem counts the partition's part of the arena — per set its
// candState, status byte, filed score, bound and terms, and its query and
// token masks — and what its bucket heaps held.
func (r *partRefiner) accountMem() {
	lo, hi := r.part.lo, r.part.hi
	n := int64(hi - lo)
	r.stats.MemCandBytes += n*int64(unsafe.Sizeof(candState{})+1+8+8+4) + n*int64(r.qWords)*int64(unsafe.Sizeof(qWord{})) +
		int64(r.e.cOff[hi]-r.e.cOff[lo])*8 + r.buckets.footprintBytes()
}
