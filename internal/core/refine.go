package core

import (
	"context"
	"unsafe"

	"repro/internal/index"
	"repro/internal/pqueue"
)

// pruneEps guards every θlb pruning comparison against float64 noise: a set
// is pruned only when its upper bound is below θlb−pruneEps. Bounds and θlb
// can be sums of the same similarities accumulated in different orders, so
// exact ties may differ by a few ulps; without the slack a tie set could be
// wrongly eliminated (see matching.BoundEps for the same guard inside the
// Hungarian solver).
const pruneEps = 1e-9

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
	setStatus uint8 = 3    // masks the status; a live set's byte holds the bits below too
)

// A live set's inexact bits: an addition to its ubSum, rowSum or lbScore
// rounded. A sum none of whose additions rounded is the exact sum of its
// terms, which post-processing then compares without pruneEps's slack
// (DESIGN.md §1).
const (
	inexactCol uint8 = 4 << iota
	inexactRow
	inexactLB
)

// add returns a + b, and bit when the addition rounded: TwoSum's error term
// (Knuth) is zero exactly when (a+b)−a = b and (a+b)−b = a.
func add(a, b float64, bit uint8) (float64, uint8) {
	s := a + b
	if s-a == b && s-b == a {
		return s, 0
	}
	return s, bit
}

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
// refinement bounds, lb and ub, and lo and hi, which hold its exactly rounded
// score bit for bit: a bound itself where its sum is exact, else moved out by
// pruneEps.
type survivor struct {
	setID          int
	lb, ub, lo, hi float64
}

// partRefiner runs Algorithm 1 over one partition's CSR inverted index,
// consuming the search's whole token stream in a single consume call and
// handing its survivors over in drain. All partitions consume the same
// tuples and share the global θlb through theta — across segments too,
// when the engine is one segment of a Group.
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
	part  *partition
	qN    int
	theta *atomicMax
	stats *Stats
	dead  []uint64

	arenaShare
	llb *pqueue.TopK
	// seeds are the kept scores of the partition's sets the θlb seed solved,
	// by group-wide set ID, and seedBase the group-wide ID of the engine's
	// set 0 (markSeeds).
	seeds    []seedScore
	seedBase int
	// rs is the refiner's pooled working memory.
	rs *refinerScratch
}

// refinerScratch is one partition refiner's working memory, reused across
// tuples, candidates and searches, and the refiner itself: the Llb list,
// per tuple a memtable engine's gathered postings, those keepBounded keeps
// and the sets it settles, the sets consume admitted, in the order it
// admitted them, and the survivors drain hands to post-processing.
type refinerScratch struct {
	r        partRefiner
	llb      pqueue.TopK
	admitted []int32
	surv     []survivor

	memSids, memPoss             []int32
	keptSids, keptPoss, settling []int32
}

// settledBound marks a set refinement has pruned, whether the bound or the
// walk decided it, and seededBound a set the θlb seed solved (markSeeds):
// both are below every θlb, so consume skips their postings without another
// look, and neither is settled again — a negative bound is no first drop
// (index.PartitionPostings).
const (
	settledBound = -1
	seededBound  = -2
)

// addBounds adds each token's maximum — the similarity of its first tuple
// in the stream — to the bound of every set of the partition holding it, in
// stream order, while the set has fewer than |Q| terms — and it has at most
// |C|, one posting per distinct token — so a set's bound is the column side
// ubSum the walk will reach, formed from the same floats in the same order
// (DESIGN.md §2).
func (r *partRefiner) addBounds(tuples []streamTuple) {
	e, inv := r.e, r.part.inv
	bound, terms, qN := r.bound, r.terms, int32(r.qN)
	rs := r.rs
	for _, tup := range tuples {
		if !tup.first {
			continue
		}
		var sids []int32
		if inv != nil {
			sids, _ = inv.Postings(tup.tokenID)
		} else {
			rs.memSids, rs.memPoss = e.mem.Postings(tup.tokenID, rs.memSids, rs.memPoss)
			sids = rs.memSids
		}
		for _, sid := range sids {
			if terms[sid] < qN {
				bound[sid] += tup.sim
				terms[sid]++
			}
		}
	}
}

// partitionPostings is the bound filter keepBounded runs,
// index.PartitionPostings; a test swaps in the portable loop.
var partitionPostings = index.PartitionPostings

// keepBounded returns the postings of sids/poss whose set's bound reaches
// below = θlb − pruneEps, in their order, and settles every set it drops for
// the first time. A set whose stream-wide bound is below θlb can no longer
// matter, so its postings are passed over before its state is read. The
// filter has no branch that depends on the data (index.PartitionPostings)
// and the settle test is taken once per set, so neither costs a
// mispredicted branch per posting.
func (r *partRefiner) keepBounded(sids, poss []int32, below float64) ([]int32, []int32) {
	rs := r.rs
	ks, kp, fs := sized(rs.keptSids, len(sids)), sized(rs.keptPoss, len(sids)), sized(rs.settling, len(sids))
	rs.keptSids, rs.keptPoss, rs.settling = ks, kp, fs
	n, f := partitionPostings(sids, poss, r.bound, below, ks, kp, fs)
	for _, sid := range fs[:f] {
		r.settle(sid)
		r.bound[sid] = settledBound
	}
	return ks[:n], kp[:n]
}

// settle prunes set sid at the first posting consume skips for it: its
// bound is below θlb, so it can reach neither the top-k nor θlb. It is
// counted as the walk would have counted it in the end — a first sight as a
// candidate pruned by the iUB, a live candidate as an iUB prune on the
// column side, a tombstoned set not at all. A set settled at first sight
// never has its state written.
func (r *partRefiner) settle(sid int32) {
	unseen := r.flags[sid] == setUnseen // else live: a pruned set holds settledBound
	r.flags[sid] = setPruned
	if unseen {
		if r.dead != nil && r.dead[sid>>6]&(1<<(uint(sid)&63)) != 0 {
			return
		}
		r.stats.Candidates++
	}
	r.stats.IUBPruned++
	r.stats.BoundSettled++
}

// newPartRefiner prepares partition p's refinement state for a top-k search
// in share, the engine's share of the search's arena, and the refiner in rs,
// which becomes its working memory. Its addBounds must run before consume.
func (e *Engine) newPartRefiner(k, qN, p int, theta *atomicMax, stats *Stats, dead []uint64, share *arenaShare, rs *refinerScratch) *partRefiner {
	rs.llb.Reset(k)
	// The admitted list spans every consume call of the search, not one.
	rs.admitted = rs.admitted[:0]
	rs.r = partRefiner{
		e: e, part: &e.parts[p], qN: qN, theta: theta, stats: stats, dead: dead,
		arenaShare: *share,
		llb:        &rs.llb,
		rs:         rs,
	}
	return &rs.r
}

// markSeeds takes the sets of r's partition the θlb seed solved out of the
// walk (DESIGN.md §2). scores are the seed's kept scores by group-wide set
// ID, ascending (Group.seedTheta), and base is the group-wide ID of the
// engine's set 0. It must run after addBounds and before consume. Each such
// set counts as a candidate here, once; it is pruned to the walk, its bound
// seededBound, so it never gets a candState and consume never offers it to
// the Llb; and its kept score, a real matching's weight and so at least any
// greedy bound the walk could offer for it, enters the Llb now. (The Llb's
// bottom cannot rise above θlb here: the seed is the least of its k sets'
// scores.) drain hands it over at that score.
func (r *partRefiner) markSeeds(scores []seedScore, base int) {
	lo, hi := base+int(r.part.lo), base+int(r.part.hi)
	i := 0
	for i < len(scores) && scores[i].gid < lo {
		i++
	}
	j := i
	for j < len(scores) && scores[j].gid < hi {
		j++
	}
	r.seeds, r.seedBase = scores[i:j], base
	for _, s := range r.seeds {
		sid := s.gid - base
		r.flags[sid], r.bound[sid] = setPruned, seededBound
		r.stats.Candidates++
		r.llb.Update(sid, s.score)
	}
}

// consume walks tuples, in order. The loop polls ctx every ctxCheckEvery
// tuples and returns false once it is canceled (the refiner's state is then
// partial and must be discarded).
func (r *partRefiner) consume(ctx context.Context, tuples []streamTuple) bool {
	e := r.e
	inv, cOff := r.part.inv, e.cOff
	states, flags, qBits, cBits, qWords := r.states, r.flags, r.qBits, r.cBits, r.qWords
	llb, theta, stats, dead := r.llb, r.theta, r.stats, r.dead
	qN := r.qN
	bound := r.bound
	admitted := r.rs.admitted
	walked, skipped := 0, 0

	for i := range tuples {
		if i&(ctxCheckEvery-1) == ctxCheckEvery-1 && ctx.Err() != nil {
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
		if below := theta.Load() - pruneEps; below > 0 {
			n := len(sids)
			sids, poss = r.keepBounded(sids, poss, below)
			skipped += n - len(sids)
		}
		for pi, sid := range sids {
			f := flags[sid]
			switch f {
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
				admitted = append(admitted, sid)
				// Admitted: its state and masks are written now, and only now.
				// Lemma 2's filter has nothing left to prune here: keepBounded
				// dropped every set whose bound is below θlb, and a set first
				// met at level s has bound ≤ min(|Q|,|C|)·s (DESIGN.md §2).
				slots := min(int32(qN), e.card[sid])
				f = setLive
				flags[sid] = f
				states[sid] = candState{mRem: slots, rRem: slots}
				clear(qBits[int(sid)*qWords : (int(sid)+1)*qWords])
				clear(cBits[cOff[sid]:cOff[sid+1]])
			}
			st := &states[sid]
			// Incremental upper bound: count the token's maximum similarity
			// once, while slots remain (the stream is descending, so the
			// first min(|Q|,|C|) distinct tokens carry the largest sums).
			var inexact uint8
			if tup.first && st.mRem > 0 {
				st.ubSum, inexact = add(st.ubSum, s, inexactCol)
				st.mRem--
			}
			// The query side: the query element's first arrival into the
			// candidate is its best edge into it; count it while slots
			// remain.
			qw := &qBits[int(sid)*qWords+int(tup.qIdx)>>6]
			qbit := uint64(1) << (uint(tup.qIdx) & 63)
			if st.rRem > 0 && qw.seen&qbit == 0 {
				qw.seen |= qbit
				var bit uint8
				st.rowSum, bit = add(st.rowSum, s, inexactRow)
				inexact |= bit
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
					var bit uint8
					st.lbScore, bit = add(st.lbScore, s, inexactLB)
					inexact |= bit
					if llb.Update(int(sid), st.lbScore) {
						theta.Update(llb.Bottom())
					}
				}
			}
			if f|inexact != f {
				flags[sid] = f | inexact
			}
		}
	}
	r.rs.admitted = admitted
	stats.Postings += walked
	stats.PostingsSkipped += skipped
	return true
}

// drain emits the survivors after the stream is exhausted: every unseen
// element contributes nothing (its similarities are all below α), so the
// final upper bound tightens to min(ubSum, rowSum) and is re-checked against
// the final θlb. A candidate it prunes whose column side alone reaches θlb
// is counted as the query side's prune. A solved seed set (markSeeds) is
// checked at its kept score, and handed over with that score as all four
// bounds. It reads the seed sets and the sets consume admitted, in that
// order, not the partition's whole range: its cost follows the candidates.
func (r *partRefiner) drain() []survivor {
	theta := r.theta.Load()
	check, below := theta > 0, theta-pruneEps
	out := r.rs.surv[:0]
	for _, s := range r.seeds {
		if so := s.score; !check || so >= below {
			out = append(out, survivor{setID: s.gid - r.seedBase, lb: so, ub: so, lo: so, hi: so})
			continue
		}
		r.stats.IUBPruned++
	}
	for _, sid := range r.rs.admitted {
		f := r.flags[sid]
		if f&setStatus != setLive {
			continue
		}
		st := &r.states[sid]
		ub, col := st.bound(0)
		if check && ub < below {
			r.stats.IUBPruned++
			if col >= below {
				r.stats.IUBQueryPruned++
			}
			continue
		}
		out = append(out, survivor{setID: int(sid), lb: st.lbScore, ub: ub,
			lo: st.lbScore - slack(f&inexactLB),
			hi: min(st.ubSum+slack(f&inexactCol), st.rowSum+slack(f&inexactRow))})
	}
	r.rs.surv = out
	r.accountMem()
	return out
}

// slack is pruneEps for an inexact sum's bit, 0 for an exact one's.
func slack(inexact uint8) float64 {
	if inexact != 0 {
		return pruneEps
	}
	return 0
}

// accountMem counts the partition's part of the arena: per set its
// candState, status byte, bound and terms, and its query and token masks;
// and per admitted set its entry in the admitted list.
func (r *partRefiner) accountMem() {
	lo, hi := r.part.lo, r.part.hi
	n := int64(hi - lo)
	r.stats.MemCandBytes += n*int64(unsafe.Sizeof(candState{})+1+8+4) + n*int64(r.qWords)*int64(unsafe.Sizeof(qWord{})) +
		int64(r.e.cOff[hi]-r.e.cOff[lo])*8 + int64(len(r.rs.admitted))*4
}
