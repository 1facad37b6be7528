package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/sets"
)

// This file implements the lazy token stream of DESIGN.md §10: the pump
// that feeds the partition refiners block by block, the θlb-driven cut-off
// condition, and the full-stream bound replay for the surviving candidate
// pool that keeps a truncated search byte-identical to one that consumed
// the whole stream (the edge cache is completed by draining the stream; see
// SearchContext).

// replayEv is one tail edge event of a candidate. Events replay in global
// stream order: the identity phase (all identity tuples, in query order)
// precedes every probed tuple, which stream in (similarity desc, token asc,
// query index asc) order — exactly index.Stream's merge order. k1 is -Inf for
// identity events (they precede everything) and -sim otherwise, so one float
// compare orders nearly every pair; token strings are read only between two
// probed events of equal similarity at different candidate positions.
type replayEv struct {
	k1   float64
	sim  float64
	qIdx int32
	pos  int32 // candidate-local element position
}

// replayScratch reuses the replay buffers across candidates and searches.
// kept counts the tail events the mask filter let through and ties the
// event comparisons that had to read token strings, for the tests and the
// benchmark that watch them.
type replayScratch struct {
	events []replayEv
	firsts []float64
	kept   int
	ties   int
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

// consumedIdentity reports whether query element qIdx's identity tuple was
// emitted at or before the cut point.
func (at cutPoint) consumedIdentity(qIdx int32) bool {
	return !at.phase1 || qIdx <= at.qIdx
}

// consumed reports whether the probed edge (qIdx, sim) of token tid was
// emitted at or before the cut point. The token's string is read only when
// sim ties with the cut's.
func (at cutPoint) consumed(qIdx int32, sim float64, tid int32, repo *sets.Repository) bool {
	if at.phase1 {
		return false
	}
	if sim != at.sim {
		return sim > at.sim
	}
	if tok := repo.Token(tid); tok != at.token {
		return tok < at.token
	}
	return qIdx <= at.qIdx
}

// tailBounds completes one surviving candidate's refinement bounds (iLB
// greedy lower bound and drained ubSum upper bound) to their full-stream
// values: starting from the refiner's cut state — lbScore, ubSum, mRem and
// the candidate's greedy matching masks — it applies the edge events the
// eager tail would have delivered for this candidate, in the same order,
// accumulating the same float additions in the same sequence. The values are
// therefore bit-identical to what the eager pipeline's refiner hands to
// post-processing. edgesOf is the drained CSR cache; qids are the
// (post-demotion) query element token IDs, which identify identity edges.
//
// Only tail events whose query element and candidate position are both
// unmatched in the cut-time masks are kept: the greedy continuation takes an
// edge iff both endpoints are free and the masks only grow, so a dropped
// event is one the loop would have skipped, and the kept events in the same
// relative order add the same floats in the same sequence. The work is
// proportional to the edges the cut left open, not to the candidate's tail.
//
// Past the cut no tuple can affect any other candidate (DESIGN.md §10), so
// per-candidate continuation is exact.
func (r *partRefiner) tailBounds(local int32, edgesOf func(int32) []qEdge, qids []int32, at cutPoint, rs *replayScratch) (lb, ub float64) {
	e := r.e
	st := &r.states[local]
	set := e.repo.Set(e.parts[r.p][local])
	lb, ub = st.lbScore, st.ubSum
	mRem := st.mRem
	negInf := math.Inf(-1)
	qm := r.qBits[int(local)*r.qWords : (int(local)+1)*r.qWords]
	cOff := e.cOffs[r.p]
	cm := r.cBits[cOff[local]:cOff[local+1]]

	rs.events = rs.events[:0]
	rs.firsts = rs.firsts[:0]
	identFirsts := int32(0)
	for pos, tid := range set.ElemIDs {
		posFree := cm[pos>>6]&(1<<(uint(pos)&63)) == 0
		if !posFree && mRem == 0 {
			continue // no edge of a matched token can be taken, and ubSum is full
		}
		edges := edgesOf(tid)
		if len(edges) == 0 {
			continue // never streamed: contributes to neither bound
		}
		identQ := int32(-1)
		maxSim, maxQ := negInf, int32(-1)
		for _, ed := range edges {
			open := posFree && qm[ed.qIdx>>6]&(1<<(uint(ed.qIdx)&63)) == 0
			if qids[ed.qIdx] == tid {
				identQ = ed.qIdx
				if open && !at.consumedIdentity(ed.qIdx) {
					rs.events = append(rs.events, replayEv{k1: negInf, sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos)})
				}
				continue
			}
			if ed.sim > maxSim {
				maxSim, maxQ = ed.sim, ed.qIdx
			} else if ed.sim == maxSim && ed.qIdx < maxQ {
				maxQ = ed.qIdx
			}
			if open && !at.consumed(ed.qIdx, ed.sim, tid, e.repo) {
				rs.events = append(rs.events, replayEv{k1: -ed.sim, sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos)})
			}
		}
		if mRem == 0 {
			continue
		}
		// The token's global first arrival: its identity tuple when it is a
		// query element, else its maximum-similarity edge (lowest query
		// index on ties — the merge order). Only unconsumed first arrivals
		// still contribute to ubSum.
		switch {
		case identQ >= 0:
			if !at.consumedIdentity(identQ) {
				identFirsts++
			}
		case maxQ >= 0:
			if !at.consumed(maxQ, maxSim, tid, e.repo) {
				rs.firsts = append(rs.firsts, maxSim)
			}
		}
	}

	rs.kept += len(rs.events)

	// iLB continuation: greedy matching over the open tail events in stream
	// order (Lemma 5) on the candidate's existing masks — take an edge iff
	// both endpoints are still unmatched.
	slices.SortFunc(rs.events, func(a, b replayEv) int {
		switch {
		case a.k1 < b.k1:
			return -1
		case a.k1 > b.k1:
			return 1
		}
		if a.pos != b.pos && a.k1 != negInf {
			rs.ties++
			return strings.Compare(e.repo.Token(set.ElemIDs[a.pos]), e.repo.Token(set.ElemIDs[b.pos]))
		}
		return int(a.qIdx - b.qIdx)
	})
	for _, ev := range rs.events {
		qw, qb := ev.qIdx>>6, uint64(1)<<(uint(ev.qIdx)&63)
		pw, pb := ev.pos>>6, uint64(1)<<(uint(ev.pos)&63)
		if qm[qw]&qb == 0 && cm[pw]&pb == 0 {
			qm[qw] |= qb
			cm[pw] |= pb
			lb += ev.sim
		}
	}

	// ubSum continuation: the remaining first arrivals, in stream order, fill
	// the remaining min(|Q|,|C|) slots — identity tuples, then the probed
	// maxima descending. Entries the stream orders by token carry equal
	// floats, so the sorted values alone give the same additions in the same
	// sequence.
	for ; identFirsts > 0 && mRem > 0; identFirsts, mRem = identFirsts-1, mRem-1 {
		ub++
	}
	slices.Sort(rs.firsts)
	for i := len(rs.firsts) - 1; i >= 0 && mRem > 0; i, mRem = i-1, mRem-1 {
		ub += rs.firsts[i]
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
// completes exactly (DESIGN.md §10). With the cut-off disabled
// (DisableLazy, or DisableIUB: the cut's "no unseen set survives" argument
// is the Lemma 2 first-sight filter) the whole stream is one block, so the
// condition is never evaluated and every refiner consumes the arena in a
// single call — the reference the cut searches are held to. It returns the
// consumed tuple prefix, whether (and at what level) the stream was cut, the
// stream-order position of the last consumed tuple (the tail replay's split
// point), and false when ctx was canceled.
func (g *Group) pumpLazy(ctx context.Context, st *index.Stream, refiners [][]*partRefiner, theta *atomicMax, lead *Engine, sc *queryScratch, qN int) (tuples []streamTuple, cut bool, cutLevel float64, at cutPoint, ok bool) {
	nref := 0
	for _, rs := range refiners {
		nref += len(rs)
	}
	blockSize := g.Opts.LazyBlock
	if g.Opts.DisableLazy || g.Opts.DisableIUB {
		blockSize = math.MaxInt
	}
	raw := sc.raw
	defer func() {
		clear(raw[:cap(raw)]) // a pooled buffer must not pin a request's strings
		sc.raw = raw
	}()
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
		if alive <= lazyPoolCap(g.Opts.K) {
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
