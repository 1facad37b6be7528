package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/index"
)

// This file implements the lazy token stream of DESIGN.md §10: the pump
// that feeds the partition refiners block by block, the θlb-driven cut-off
// condition, and the full-stream bound replay for the surviving candidate
// pool that keeps a truncated search byte-identical to the eager pipeline
// (the edge cache is completed by draining the stream; see SearchContext).

// replayEv is one candidate edge event, carrying its global-stream-order
// sort key: the identity phase (all identity tuples, in query order)
// precedes every probed tuple, which stream in (similarity desc, token asc,
// query index asc) order — exactly index.Stream's merge order. The key is
// packed into two machine words so the sort never compares token strings:
// k1 is -Inf for identity events (they precede everything) and -sim
// otherwise; k2 breaks ties with the candidate-local token STRING ordinal
// (precomputed once per candidate) and the query element index.
type replayEv struct {
	k1   float64
	k2   uint64
	sim  float64
	qIdx int32
	pos  int32 // candidate-local element position
}

func replayKeyLess(a1 float64, a2 uint64, b1 float64, b2 uint64) int {
	switch {
	case a1 < b1:
		return -1
	case a1 > b1:
		return 1
	case a2 < b2:
		return -1
	case a2 > b2:
		return 1
	default:
		return 0
	}
}

// tokFirst is one distinct candidate token's first stream arrival: its
// maximum similarity to any query element, at the position the merge order
// assigns it (k1/k2 as in replayEv, with k2 = token ordinal alone). mRem
// decrements exactly at these events.
type tokFirst struct {
	k1  float64
	k2  uint64
	sim float64
}

// tokOrder is a candidate token with its string, for the per-candidate
// ordinal assignment.
type tokOrder struct {
	tok string
	at  int32 // index into the candidate's token-entry slice
}

// replayScratch reuses one partition's replay buffers across candidates.
type replayScratch struct {
	events  []replayEv
	firsts  []tokFirst
	order   []tokOrder
	ord     []uint64 // token-entry index -> string ordinal
	qMask   []uint64
	posMask []uint64
}

// cutPoint is the stream-order position of the last tuple refinement
// consumed: every unconsumed tuple is strictly after it in the stream's
// total order (identity phase by query index, then (sim desc, token asc,
// query index asc)). The bound replay uses it to split a candidate's edges
// into the consumed prefix — already folded into the refiner's state — and
// the tail still to be applied.
type cutPoint struct {
	phase1 bool
	sim    float64
	token  string
	qIdx   int32
}

// consumed reports whether the edge (identity?, qIdx, sim, tok) was
// emitted at or before the cut point.
func (at cutPoint) consumed(identity bool, qIdx int32, sim float64, tok string) bool {
	if identity {
		if at.phase1 {
			return qIdx <= at.qIdx
		}
		return true
	}
	if at.phase1 {
		return false
	}
	if sim != at.sim {
		return sim > at.sim
	}
	if tok != at.token {
		return tok < at.token
	}
	return qIdx <= at.qIdx
}

// tailBounds completes one surviving candidate's refinement bounds (iLB
// greedy lower bound and drained ubSum upper bound) to their full-stream
// values: starting from the refiner's cut state — lbScore, ubSum, mRem and
// the candidate's greedy matching masks — it applies exactly the edge
// events the eager tail would have delivered for this candidate, in the
// same order, accumulating the same float additions in the same sequence.
// The values are therefore bit-identical to what the eager pipeline's
// refiner hands to post-processing, and the work is proportional to the
// candidate's TAIL edges, not its full edge lists. edgesOf is the drained
// CSR cache; qids are the (post-demotion) query element token IDs, which
// identify identity edges.
//
// Past the cut no tuple can affect any other candidate (DESIGN.md §10), so
// per-candidate continuation is exact.
func (r *partRefiner) tailBounds(local int32, qN int, edgesOf func(int32) []qEdge, qids []int32, at cutPoint, rs *replayScratch) (lb, ub float64) {
	e := r.e
	st := &r.states[local]
	sid := e.parts[r.p][local]
	set := e.repo.Set(sid)
	lb, ub = st.lbScore, st.ubSum
	mRem := st.mRem
	negInf := math.Inf(-1)

	// Pass 1: the candidate's streamed tokens ordered by string, so the
	// tail-event sort compares integers only (stream ties break on the
	// token string; distinct tokens have distinct strings).
	rs.order = rs.order[:0]
	for pos, tid := range set.ElemIDs {
		if len(edgesOf(tid)) == 0 {
			continue // never streamed: contributes to neither bound
		}
		rs.order = append(rs.order, tokOrder{tok: e.repo.Token(tid), at: int32(pos)})
	}
	if len(rs.order) == 0 {
		return lb, ub
	}
	slices.SortFunc(rs.order, func(a, b tokOrder) int { return strings.Compare(a.tok, b.tok) })
	if cap(rs.ord) < len(set.ElemIDs) {
		rs.ord = make([]uint64, len(set.ElemIDs))
	}
	ord := rs.ord[:len(set.ElemIDs)]
	for rank, to := range rs.order {
		ord[to.at] = uint64(rank)
	}

	// Pass 2: tail edge events, and the tokens whose global first arrival
	// is still ahead of the cut (those are where ubSum still grows).
	rs.events = rs.events[:0]
	rs.firsts = rs.firsts[:0]
	for _, to := range rs.order {
		pos := int(to.at)
		tid := set.ElemIDs[pos]
		edges := edgesOf(tid)
		if len(edges) == 0 {
			continue
		}
		tok := to.tok
		identQ := int32(-1)
		maxSim, maxQ := negInf, int32(-1)
		for _, ed := range edges {
			if qids[ed.qIdx] == tid {
				identQ = ed.qIdx
				if !at.consumed(true, ed.qIdx, ed.sim, tok) {
					rs.events = append(rs.events, replayEv{
						k1: negInf, k2: uint64(ed.qIdx), sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos),
					})
				}
				continue
			}
			if ed.sim > maxSim {
				maxSim, maxQ = ed.sim, ed.qIdx
			} else if ed.sim == maxSim && ed.qIdx < maxQ {
				maxQ = ed.qIdx
			}
			if !at.consumed(false, ed.qIdx, ed.sim, tok) {
				rs.events = append(rs.events, replayEv{
					k1: -ed.sim, k2: ord[pos]<<32 | uint64(ed.qIdx), sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos),
				})
			}
		}
		// The token's global first arrival: its identity tuple when it is a
		// query element, else its maximum-similarity edge (lowest query
		// index on ties — the merge order). Only unconsumed first arrivals
		// still contribute to ubSum.
		switch {
		case identQ >= 0:
			if !at.consumed(true, identQ, 1, tok) {
				rs.firsts = append(rs.firsts, tokFirst{k1: negInf, k2: uint64(identQ), sim: 1})
			}
		case maxQ >= 0:
			if !at.consumed(false, maxQ, maxSim, tok) {
				rs.firsts = append(rs.firsts, tokFirst{k1: -maxSim, k2: ord[pos], sim: maxSim})
			}
		}
	}

	// iLB continuation: greedy matching over the tail events in stream
	// order (Lemma 5) on the candidate's existing masks — take an edge iff
	// both endpoints are unmatched.
	slices.SortFunc(rs.events, func(a, b replayEv) int { return replayKeyLess(a.k1, a.k2, b.k1, b.k2) })
	qWords := r.qWords
	qm := r.qBits[int(local)*qWords : (int(local)+1)*qWords]
	cOff := e.cOffs[r.p]
	cm := r.cBits[cOff[local]:cOff[local+1]]
	for _, ev := range rs.events {
		qw, qb := ev.qIdx>>6, uint64(1)<<(uint(ev.qIdx)&63)
		pw, pb := ev.pos>>6, uint64(1)<<(uint(ev.pos)&63)
		if qm[qw]&qb == 0 && cm[pw]&pb == 0 {
			qm[qw] |= qb
			cm[pw] |= pb
			lb += ev.sim
		}
	}

	// ubSum continuation: the remaining first arrivals in stream order fill
	// the remaining min(|Q|,|C|) slots.
	slices.SortFunc(rs.firsts, func(a, b tokFirst) int { return replayKeyLess(a.k1, a.k2, b.k1, b.k2) })
	for i := 0; i < len(rs.firsts) && mRem > 0; i++ {
		ub += rs.firsts[i].sim
		mRem--
	}
	return lb, ub
}

// lazyPoolCap bounds the candidate pool size at which a cut is taken: the
// reconstruction replays full bounds for every alive candidate, so cutting
// under a huge pool would trade stream consumption for more replay work
// than it saves. The pool keeps shrinking as θlb rises, so a blocked cut
// usually fires a few blocks later.
func lazyPoolCap(k int) int {
	if c := 32 * k; c > 64 {
		return c
	}
	return 64
}

// pumpLazy drives the lazy pipeline's refinement phase: it pulls descending
// blocks from the stream into the grow-only shared tuple arena, fans each
// block out to every partition refiner (an epoch barrier — all refiners
// finish block n before block n+1 is pulled), and stops as soon as the
// stream termination condition holds:
//
//	level · min(|Q|, maxUnseenCard) < θlb − ε
//
// — the Lemma 2 first-sight bound sharpened to the sets that can still
// arrive: every set not yet seen has at most maxUnseenCard elements, so its
// upper bound min(|Q|,|C|)·level is already below θlb and it would be
// pruned on arrival. From that point the unseen tail can influence nothing
// except the alive candidates' own bounds, which the cut reconstruction
// completes exactly (DESIGN.md §10). It returns the consumed tuple prefix,
// whether (and at what level) the stream was cut, the stream-order position
// of the last consumed tuple (the tail replay's split point), and false
// when ctx was canceled.
func (g *Group) pumpLazy(ctx context.Context, st *index.Stream, refiners [][]*partRefiner, theta *atomicMax, lead *Engine, sc *queryScratch, qN, k int) (tuples []streamTuple, cut bool, cutLevel float64, at cutPoint, ok bool) {
	nref := 0
	for _, rs := range refiners {
		nref += len(rs)
	}
	blockSize := lead.opts.LazyBlock
	raw := make([]index.Tuple, 0, blockSize)
	var last index.Tuple
	more := true
	for more {
		raw, more = st.NextBlock(raw[:0], blockSize)
		if len(raw) > 0 {
			last = raw[len(raw)-1]
			base := len(tuples)
			for _, t := range raw {
				tuples = append(tuples, lead.noteTuple(t, sc, g.LiveTokens))
			}
			block := tuples[base:]
			if nref == 1 {
				if !refiners[0][0].consume(ctx, block, base) {
					return tuples, false, 0, at, false
				}
			} else {
				var wg sync.WaitGroup
				var canceled sync.Once
				stop := false
				for _, rs := range refiners {
					for _, r := range rs {
						wg.Add(1)
						go func(r *partRefiner) {
							defer wg.Done()
							if !r.consume(ctx, block, base) {
								canceled.Do(func() { stop = true })
							}
						}(r)
					}
				}
				wg.Wait()
				if stop {
					return tuples, false, 0, at, false
				}
			}
		}
		if !more {
			break
		}
		alive := 0
		for _, rs := range refiners {
			for _, r := range rs {
				alive += r.alive
			}
		}
		if alive <= lazyPoolCap(k) {
			bound := 0
			for _, rs := range refiners {
				for _, r := range rs {
					if mc := int(r.maxUnseenCard()); mc > bound {
						bound = mc
					}
				}
			}
			if qN < bound {
				bound = qN
			}
			level := st.Level()
			if t := theta.Load(); t > 0 && level*float64(bound) < t-pruneEps {
				at = cutPoint{phase1: len(tuples) <= qN, sim: last.Sim, token: last.Token, qIdx: int32(last.QIdx)}
				return tuples, true, level, at, true
			}
		}
	}
	return tuples, false, 0, at, true
}
