package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/pqueue"
	"repro/internal/sets"
)

// This file implements the lazy token stream of DESIGN.md §10: the pump
// that feeds the partition refiners block by block, the θlb-driven cut-off
// condition, and the full-stream bound replay for the surviving candidate
// pool that keeps a truncated search byte-identical to one that consumed
// the whole stream (the edge cache holds the whole stream from before the
// first block; see Engine.peekStream).

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

// refinerScratch is one partition refiner's working memory, reused across
// tuples, candidates and searches, and the refiner itself. The walk's: the
// iUB bucket heaps, the Llb list and, per tuple, a memtable engine's
// gathered postings, those keepBounded keeps and the sets it settles. The
// cut replay's: the tail events, the query side's best edge per row, the
// rows holding one and their sorted values, and beside each replayed
// survivor its full column side. Both end in surv, the survivors handed to
// post-processing. kept counts the tail events the mask filter let through
// and ties the event comparisons that had to read token strings, for the
// tests and the benchmark that watch them.
type refinerScratch struct {
	r       partRefiner
	buckets iubBuckets
	llb     pqueue.TopK
	surv    []survivor

	memSids, memPoss             []int32
	keptSids, keptPoss, settling []int32

	events  []replayEv
	rowBest []float64
	rows    []int32
	rowSims []float64
	colUB   []float64
	kept    int
	ties    int
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
// greedy lower bound and drained upper bound) to their full-stream values:
// starting from the refiner's cut state — lbScore, rowSum, rRem and the
// candidate's masks — it applies the edge events the eager tail would have
// delivered for this candidate, in the same order, accumulating the same
// float additions in the same sequence. The values are therefore
// bit-identical to what the eager pipeline's refiner hands to
// post-processing: lb, ub = min(ubSum, rowSum), and col = ubSum, the column
// side alone — which is the set's stream-wide bound, the full ubSum bit for
// bit (DESIGN.md §2). edgesOf is the edge cache; qids are the
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
func (r *partRefiner) tailBounds(sid int32, edgesOf func(int32) []qEdge, qids []int32, at cutPoint) (lb, ub, col float64) {
	e, rs := r.e, r.rs
	st := &r.states[sid]
	set := e.repo.Set(int(sid))
	lb, col = st.lbScore, r.bound[sid]
	negInf, identity := math.Inf(-1), math.Inf(1)
	qm := r.qBits[int(sid)*r.qWords : (int(sid)+1)*r.qWords]
	cm := r.cBits[e.cOff[sid]:e.cOff[sid+1]]
	// While rowSum has slots left, the walk also gathers, per query element
	// unseen at the cut, its best edge into the candidate — identity edges
	// as +Inf, above every probed similarity — in best, and the rows it
	// touched in rows.
	rowsOpen := st.rRem > 0
	var best []float64
	if rowsOpen {
		best = regrown(rs.rowBest, r.qN)
		rs.rowBest = best
	}
	rows := rs.rows[:0]

	rs.events = rs.events[:0]
	for pos, tid := range set.ElemIDs {
		posFree := cm[pos>>6]&(1<<(uint(pos)&63)) == 0
		if !posFree && !rowsOpen {
			continue // no edge of a matched token can be taken, and rowSum is full
		}
		for _, ed := range edgesOf(tid) {
			qw, qb := &qm[ed.qIdx>>6], uint64(1)<<(uint(ed.qIdx)&63)
			open := posFree && qw.matched&qb == 0
			ident := qids[ed.qIdx] == tid
			if rowsOpen && qw.seen&qb == 0 {
				v := ed.sim
				if ident {
					v = identity
				}
				if b := best[ed.qIdx]; b == 0 { // similarities are at least α > 0
					rows = append(rows, ed.qIdx)
					best[ed.qIdx] = v
				} else if v > b {
					best[ed.qIdx] = v
				}
			}
			switch {
			case !open:
			case ident:
				if !at.consumedIdentity(ed.qIdx) {
					rs.events = append(rs.events, replayEv{k1: negInf, sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos)})
				}
			case !at.consumed(ed.qIdx, ed.sim, tid, e.repo):
				rs.events = append(rs.events, replayEv{k1: -ed.sim, sim: ed.sim, qIdx: ed.qIdx, pos: int32(pos)})
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
		if qm[qw].matched&qb == 0 && cm[pw]&pb == 0 {
			qm[qw].matched |= qb
			cm[pw] |= pb
			lb += ev.sim
		}
	}

	// rowSum continuation: every query element unseen at the cut arrives in
	// the tail, first with its best edge into the candidate, and the first
	// rRem of those arrivals in stream order are the identity edges, then the
	// probed maxima descending. Entries the stream orders by token carry
	// equal floats, so the sorted values alone give the same additions in the
	// same sequence. The sum is not formed when it cannot matter: rowSum only
	// grows, so once it reaches the full ubSum the minimum is ubSum whatever
	// the tail adds, and a candidate whose ubSum is already below θlb, which
	// only rises, leaves in filterPool whatever its query side.
	ub = min(col, st.rowSum)
	if rowsOpen && st.rowSum < col && col >= r.theta.Load()-pruneEps {
		sims := rs.rowSims[:0]
		for _, q := range rows {
			sims = append(sims, best[q])
		}
		slices.Sort(sims)
		sum := st.rowSum
		for i, rRem := len(sims)-1, st.rRem; i >= 0 && rRem > 0; i, rRem = i-1, rRem-1 {
			if sims[i] == identity {
				sum++
			} else {
				sum += sims[i]
			}
		}
		ub = min(col, sum)
		rs.rowSims = sims
	}
	for _, q := range rows {
		best[q] = 0
	}
	rs.rows = rows
	return lb, ub, col
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
func (g *Group) pumpLazy(ctx context.Context, st *index.Stream, chunks []chunk, theta *atomicMax, lead *Engine, sc *queryScratch, qN int) (tuples []streamTuple, cut bool, cutLevel float64, at cutPoint, ok bool) {
	blockSize := g.Opts.LazyBlock
	if g.Opts.DisableLazy || g.Opts.DisableIUB {
		blockSize = math.MaxInt
	}
	raw := sc.raw
	tuples = sc.tuples[:0]
	defer func() {
		clear(raw[:cap(raw)]) // a pooled buffer must not pin a request's strings
		sc.raw, sc.tuples = raw, tuples
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
			if len(chunks) == 1 {
				if !chunks[0].r.consume(ctx, block, base) {
					return tuples, false, 0, at, false
				}
			} else {
				var wg sync.WaitGroup
				var canceled sync.Once
				stop := false
				for i := range chunks {
					wg.Add(1)
					go func(r *partRefiner) {
						defer wg.Done()
						if !r.consume(ctx, block, base) {
							canceled.Do(func() { stop = true })
						}
					}(chunks[i].r)
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
		for i := range chunks {
			alive += chunks[i].r.alive
		}
		if alive <= lazyPoolCap(g.Opts.K) {
			bound := 0
			for i := range chunks {
				if mc := int(chunks[i].r.maxUnseenCard()); mc > bound {
					bound = mc
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
