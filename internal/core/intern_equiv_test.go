package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/pqueue"
	"repro/internal/sets"
)

// This file keeps the pre-interning, string-keyed implementation of the
// whole query pipeline as an oracle: tokens are compared and hashed as
// strings, the edge cache is a map[string][]qEdge, candidate state lives in
// a map[int32]*state with a map[string]struct{} per candidate. The interned
// engine (integer token IDs, CSR postings, dense candidate state) must
// return byte-identical results and identical pruning statistics — the two
// implementations differ in data representation, and in when the iUB filter
// prunes (oracleEngine.refinePartition), never in what it prunes. The θlb
// seed is mirrored too (oracleEngine.seed): it decides which sets are
// solved before the walk and keep their exact scores.

type oracleTuple struct {
	qIdx  int32
	token string
	sim   float64
	first bool
}

type oracleEdge struct {
	qIdx int32
	sim  float64
}

type oracleCand struct {
	ubSum    float64
	rowSum   float64
	lbScore  float64
	inexact  uint8
	mRem     int32
	rRem     int32
	pruned   bool
	qSeen    map[int32]bool
	qMask    []uint64
	cMatched map[string]struct{}
}

// bound is the two-sided corrected iUB at level s (DESIGN.md §2).
func (c *oracleCand) bound(s float64) float64 {
	return min(c.ubSum+float64(c.mRem)*s, c.rowSum+float64(c.rRem)*s)
}

// oraclePruneEvery is the oracle's iUB-filter cadence in stream tuples.
const oraclePruneEvery = 32

type oracleEngine struct {
	repo *sets.Repository
	src  index.NeighborSource
	opts Options
	invs []*index.Inverted
}

func newOracleEngine(repo *sets.Repository, src index.NeighborSource, opts Options) *oracleEngine {
	opts = opts.withDefaults()
	e := &oracleEngine{repo: repo, src: src, opts: opts}
	n := repo.Len()
	np := max(min(opts.Partitions, n), 1)
	for p := range np {
		e.invs = append(e.invs, index.NewInvertedSubset(repo, p*n/np, (p+1)*n/np))
	}
	return e
}

func (e *oracleEngine) Search(query []string) ([]Result, Stats) {
	var stats Stats
	query = sets.Dedup(query)
	if len(query) == 0 {
		return nil, stats
	}

	tuples, cache := e.materializeStream(query)
	stats.StreamTuples = len(tuples)

	theta := &atomicMax{}
	seed, solved := e.seed(query, tuples, cache, &stats)
	theta.Update(seed)
	partStats := make([]Stats, len(e.invs))
	partSurv := make([][]survivor, len(e.invs))
	var wg sync.WaitGroup
	for i := range e.invs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			partSurv[i] = e.refinePartition(query, tuples, e.invs[i], theta, &partStats[i])
		}(i)
	}
	wg.Wait()
	for i := range partStats {
		stats.add(&partStats[i])
	}

	var survivors []survivor
	for i := range partSurv {
		survivors = append(survivors, partSurv[i]...)
	}
	// A survivor the seed solved keeps its exact score as its bounds.
	for i := range survivors {
		if so, ok := solved[survivors[i].setID]; ok {
			sv := &survivors[i]
			sv.lb, sv.ub, sv.lo, sv.hi = so, so, so, so
		}
	}
	llb := pqueue.NewTopK(e.opts.K)
	for _, sv := range survivors {
		llb.Update(sv.setID, sv.lb)
	}
	theta.Update(llb.Bottom())
	results := e.postproc(query, cache, survivors, solved, llb, theta, &stats)

	if e.opts.ExactScores {
		for i, r := range results {
			if r.Verified {
				continue
			}
			res := e.verify(query, cache, e.repo.Elements(r.SetID), theta)
			stats.HungarianIterations += res.Iterations
			stats.VerifyCalls++
			stats.FinalizeEM++
			results[i].Score = res.Score
			results[i].Verified = true
		}
		e.sortResults(results)
	}
	return results, stats
}

func (e *oracleEngine) materializeStream(query []string) ([]oracleTuple, map[string][]oracleEdge) {
	st := index.NewStream(query, e.src, e.opts.Alpha)
	var tuples []oracleTuple
	seen := make(map[string]bool)
	cache := make(map[string][]oracleEdge)
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		first := !seen[tup.Token]
		seen[tup.Token] = true
		tuples = append(tuples, oracleTuple{qIdx: int32(tup.QIdx), token: tup.Token, sim: tup.Sim, first: first})
		cache[tup.Token] = append(cache[tup.Token], oracleEdge{qIdx: int32(tup.QIdx), sim: tup.Sim})
	}
	return tuples, cache
}

// seed is the θlb seed of Group.seedTheta on the oracle's own structures:
// every set's bound is the sum of the first-arrival similarities of its
// tokens in stream order, capped at |Q| terms; the k sets of largest bound
// (the lower set ID first on ties) are scored, each by its exact score
// under ExactScores or when its greedy weight — element by element in set
// order, each taking its most similar free query element, the first in the
// stream on ties — is below its bound, and otherwise by that weight. It
// returns the least score (0 with fewer than k sets of nonzero bound) and
// the exact scores it solved, counting each solve as a verification.
func (e *oracleEngine) seed(query []string, tuples []oracleTuple, cache map[string][]oracleEdge, stats *Stats) (float64, map[int]float64) {
	n, k := e.repo.Len(), e.opts.K
	bound, terms := make([]float64, n), make([]int, n)
	for _, tup := range tuples {
		if !tup.first {
			continue
		}
		for _, inv := range e.invs {
			for _, sid := range inv.Sets(tup.token) {
				if terms[sid] < len(query) {
					bound[sid] += tup.sim
					terms[sid]++
				}
			}
		}
	}
	var top []int
	for sid, b := range bound {
		if b > 0 {
			top = append(top, sid)
		}
	}
	sort.SliceStable(top, func(i, j int) bool { return bound[top[i]] > bound[top[j]] })
	if len(top) < k {
		return 0, nil
	}
	solved := make(map[int]float64)
	seed := math.Inf(1)
	for _, sid := range top[:k] {
		elems := e.repo.Elements(sid)
		used := make(map[int32]bool)
		w := 0.0
		for _, tok := range elems {
			q, best := int32(-1), 0.0
			for _, ed := range cache[tok] {
				if ed.sim > best && !used[ed.qIdx] {
					q, best = ed.qIdx, ed.sim
				}
			}
			if q >= 0 {
				used[q] = true
				w += best
			}
		}
		if e.opts.ExactScores || w < bound[sid] {
			res := e.verify(query, cache, elems, nil)
			stats.HungarianIterations += res.Iterations
			stats.VerifyCalls++
			stats.SeedEM++
			solved[sid] = res.Score
			w = res.Score
		}
		seed = min(seed, w)
	}
	return seed, solved
}

// refinePartition is Algorithm 1 with the paper's filters in their plain
// form: Lemma 2's UB filter at a set's first sight, and the iUB filter every
// oraclePruneEvery tuples and whenever θlb rose, testing every live
// candidate with its true bound. The engine has neither — its stream-wide
// bound and its drain prune the same candidates — so the counts the two must
// agree on say that nothing either filter would prune escapes.
func (e *oracleEngine) refinePartition(query []string, tuples []oracleTuple, inv *index.Inverted, theta *atomicMax, stats *Stats) []survivor {
	opts := e.opts
	state := make(map[int32]*oracleCand)
	llb := pqueue.NewTopK(opts.K)
	qWords := (len(query) + 63) / 64
	lastPruneTheta := 0.0

	for ti, tup := range tuples {
		s := tup.sim
		for _, sid := range inv.Sets(tup.token) {
			st := state[sid]
			if st == nil {
				stats.Candidates++
				slots := min(len(query), len(e.repo.Set(int(sid)).ElemIDs))
				st = &oracleCand{
					mRem:     int32(slots),
					rRem:     int32(slots),
					qSeen:    make(map[int32]bool, 4),
					qMask:    make([]uint64, qWords),
					cMatched: make(map[string]struct{}, 4),
				}
				state[sid] = st
				// UB-Filter at first sight (Lemma 2): the first tuple for a
				// set carries its maximum element similarity, so
				// UB(C) = min(|Q|,|C|)·s.
				if t := theta.Load(); t > 0 && float64(slots)*s < t-pruneEps {
					st.pruned = true
					stats.IUBPruned++
					continue
				}
			}
			if st.pruned {
				continue
			}
			var r uint8
			if tup.first && st.mRem > 0 {
				st.ubSum, r = add(st.ubSum, s, inexactCol)
				st.inexact |= r
				st.mRem--
			}
			if !st.qSeen[tup.qIdx] {
				st.qSeen[tup.qIdx] = true
				if st.rRem > 0 {
					st.rowSum, r = add(st.rowSum, s, inexactRow)
					st.inexact |= r
					st.rRem--
				}
			}
			w, bit := tup.qIdx/64, uint64(1)<<(tup.qIdx%64)
			if st.qMask[w]&bit == 0 {
				if _, used := st.cMatched[tup.token]; !used {
					st.qMask[w] |= bit
					st.cMatched[tup.token] = struct{}{}
					st.lbScore, r = add(st.lbScore, s, inexactLB)
					st.inexact |= r
					if llb.Update(int(sid), st.lbScore) {
						theta.Update(llb.Bottom())
					}
				}
			}
		}
		t := theta.Load()
		if t > lastPruneTheta || ti%oraclePruneEvery == oraclePruneEvery-1 {
			lastPruneTheta = t
			for _, st := range state {
				if !st.pruned && st.bound(s) < t-pruneEps {
					st.pruned = true
					stats.IUBPruned++
				}
			}
		}
	}

	finalTheta := theta.Load()
	var out []survivor
	for sid, st := range state {
		if st.pruned {
			continue
		}
		ub := st.bound(0)
		if finalTheta > 0 && ub < finalTheta-pruneEps {
			stats.IUBPruned++
			continue
		}
		out = append(out, survivor{setID: int(sid), lb: st.lbScore, ub: ub,
			lo: st.lbScore - slack(st.inexact&inexactLB),
			hi: min(st.ubSum+slack(st.inexact&inexactCol), st.rowSum+slack(st.inexact&inexactRow))})
	}
	return out
}

// before is the rule, on the oracle's own: a higher score first, then the
// lower name, then the lower set ID.
func (e *oracleEngine) before(x float64, a int, y float64, b int) bool {
	if x != y {
		return x > y
	}
	if na, nb := e.repo.Set(a).Name, e.repo.Set(b).Name; na != nb {
		return na < nb
	}
	return a < b
}

func (e *oracleEngine) postproc(query []string, cache map[string][]oracleEdge, survivors []survivor, solved map[int]float64, llb *pqueue.TopK, theta *atomicMax, stats *Stats) []Result {
	opts := e.opts
	k := opts.K
	ub := make(map[int]float64, len(survivors))
	lb := make(map[int]float64, len(survivors))
	verified := make(map[int]float64)
	checked := make(map[int]bool)
	dropped := make(map[int]bool)
	// A set's exact score lies in [lo, hi]: its bounds, moved apart by
	// pruneEps where their sums rounded, or the score itself once verified.
	hi := make(map[int]float64, len(survivors))
	lo := make(map[int]float64, len(survivors))

	// Lub holds set IDs only: a member's hi changes only after it left.
	lub := map[int]bool{}
	lubKeys := func() []int { return slices.Sorted(maps.Keys(lub)) }
	type entry struct {
		hi  float64
		sid int
	}
	qub := pqueue.NewHeap(func(a, b entry) bool { return e.before(a.hi, a.sid, b.hi, b.sid) })
	for _, sv := range survivors {
		ub[sv.setID] = sv.ub
		lb[sv.setID] = sv.lb
		hi[sv.setID], lo[sv.setID] = sv.hi, sv.lo
		if so, ok := solved[sv.setID]; ok {
			verified[sv.setID], checked[sv.setID] = so, true
			stats.EMFull++
		}
		qub.Push(entry{hi: hi[sv.setID], sid: sv.setID})
	}

	refill := func() {
		for len(lub) < k && qub.Len() > 0 {
			top := qub.Pop()
			if dropped[top.sid] || lub[top.sid] || top.hi != hi[top.sid] {
				continue
			}
			if t := theta.Load(); ub[top.sid] < t-pruneEps {
				dropped[top.sid] = true
				continue
			}
			lub[top.sid] = true
		}
	}

	apply := func(sid int, res matching.Result) {
		stats.HungarianIterations += res.Iterations
		stats.VerifyCalls++
		delete(lub, sid)
		if res.Pruned {
			stats.EMEarly++
			dropped[sid] = true
			return
		}
		stats.EMFull++
		so := res.Score
		verified[sid] = so
		checked[sid] = true
		ub[sid], lb[sid], hi[sid], lo[sid] = so, so, so, so
		if llb.Update(sid, so) {
			theta.Update(llb.Bottom())
		}
		qub.Push(entry{hi: so, sid: sid})
	}

	for {
		refill()
		t := theta.Load()
		pruned := false
		for _, key := range lubKeys() {
			if ub[key] < t-pruneEps {
				delete(lub, key)
				dropped[key] = true
				pruned = true
			}
		}
		if pruned {
			continue
		}
		last := -1
		for _, key := range lubKeys() {
			if last < 0 || e.before(hi[last], last, hi[key], key) {
				last = key
			}
		}
		var pending []int
		for _, key := range lubKeys() {
			if checked[key] {
				continue
			}
			if len(lub) < k || !e.before(hi[last], last, lo[key], key) {
				checked[key] = true
				continue
			}
			pending = append(pending, key)
		}
		if len(pending) == 0 {
			break
		}
		sort.Slice(pending, func(i, j int) bool {
			return e.before(hi[pending[i]], pending[i], hi[pending[j]], pending[j])
		})
		if len(pending) > opts.Workers {
			pending = pending[:opts.Workers]
		}
		if len(pending) == 1 {
			sid := pending[0]
			apply(sid, e.verify(query, cache, e.repo.Elements(sid), theta))
			continue
		}
		type vres struct {
			sid int
			res matching.Result
		}
		ch := make(chan vres, len(pending))
		var wg sync.WaitGroup
		for _, sid := range pending {
			wg.Add(1)
			go func(sid int) {
				defer wg.Done()
				ch <- vres{sid: sid, res: e.verify(query, cache, e.repo.Elements(sid), theta)}
			}(sid)
		}
		go func() { wg.Wait(); close(ch) }()
		for v := range ch {
			apply(v.sid, v.res)
		}
	}

	stats.NoEM += len(survivors) - stats.EMFull - stats.EMEarly

	keys := lubKeys()
	out := make([]Result, 0, len(keys))
	for _, key := range keys {
		_, ok := verified[key]
		out = append(out, Result{SetID: key, Score: lb[key], Verified: ok})
	}
	e.sortResults(out)
	return out
}

// sortResults orders results by the rule.
func (e *oracleEngine) sortResults(out []Result) {
	sort.Slice(out, func(i, j int) bool { return e.before(out[i].Score, out[i].SetID, out[j].Score, out[j].SetID) })
}

func (e *oracleEngine) verify(query []string, cache map[string][]oracleEdge, elems []string, theta *atomicMax) matching.Result {
	rowOf := make(map[int32]int)
	var rows []int32
	type colEdges struct {
		edges []oracleEdge
	}
	var cols []colEdges
	for _, tok := range elems {
		edges := cache[tok]
		if len(edges) == 0 {
			continue
		}
		cols = append(cols, colEdges{edges: edges})
		for _, ed := range edges {
			if _, ok := rowOf[ed.qIdx]; !ok {
				rowOf[ed.qIdx] = 0
				rows = append(rows, ed.qIdx)
			}
		}
	}
	if len(cols) == 0 {
		return matching.Result{}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	for i, q := range rows {
		rowOf[q] = i
	}
	var bound func() float64
	if theta != nil {
		bound = theta.Load
	}
	// The dense reference decides every verification on its own: it shares
	// no code with the engine's sparse solver, and both prune iff the
	// optimum is below the bound, so EMEarly/EMFull must agree.
	w := make([][]float64, len(rows))
	for i := range w {
		w[i] = make([]float64, len(cols))
	}
	for j, ce := range cols {
		for _, ed := range ce.edges {
			w[rowOf[ed.qIdx]][j] = ed.sim
		}
	}
	return matching.HungarianBounded(w, bound)
}

// TestInternedEngineMatchesStringOracle is the equivalence test for the
// token-interning refactor: on every dataset kind, the interned engine must
// return byte-identical results and identical pruning statistics to the
// string-path oracle above. Partitions=1 and Workers=1 keep both pipelines
// fully deterministic, so equality is exact, not approximate. The oracle
// walks every posting; the engine must have skipped some on the stream-wide
// bound (DESIGN.md §2), or the comparison says nothing about the skip.
func TestInternedEngineMatchesStringOracle(t *testing.T) {
	skipped := 0
	for _, kind := range datagen.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.02)
			src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
			queries := datagen.NewBenchmark(ds, 17).Queries
			if len(queries) > 4 {
				queries = queries[:4]
			}
			for _, withExact := range []bool{false, true} {
				opts := Options{K: 10, Alpha: 0.8, ExactScores: withExact}
				eng := NewEngine(ds.Repo, src, opts)
				oracle := newOracleEngine(ds.Repo, src, opts)
				for qi, q := range queries {
					got, gs := eng.Search(q.Elements)
					want, ws := oracle.Search(q.Elements)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("query %d (exact=%v): results diverge\ninterned: %v\noracle:   %v",
							qi, withExact, got, want)
					}
					if gs.Candidates != ws.Candidates || gs.IUBPruned != ws.IUBPruned ||
						gs.EMEarly != ws.EMEarly || gs.EMFull != ws.EMFull || gs.VerifyCalls != ws.VerifyCalls ||
						gs.NoEM != ws.NoEM || gs.StreamTuples != ws.StreamTuples {
						t.Fatalf("query %d (exact=%v): stats diverge\ninterned: %+v\noracle:   %+v",
							qi, withExact, gs, ws)
					}
					skipped += gs.PostingsSkipped
				}
			}
		})
	}
	if skipped == 0 {
		t.Fatal("no posting was skipped: the stream-wide bound went unexercised")
	}
}

// TestInternedEngineMatchesOracleRandom covers the random-instance space the
// other engine tests use, beyond the four synthetic dataset shapes, and the
// same instances with similarities floored to steps of 0.05: equal bounds
// are then everywhere, and which of two equal candidates post-processing
// takes first decides what is verified under which θlb. Those run over one
// partition and over three, whose survivors reach post-processing out of
// set-ID order, with one verification worker and with four.
//
// What must be equal is what does not depend on timing. Results, Candidates
// and the number of verifications always are. How the verifications split
// into early-terminated and completed is when one worker runs them: with
// several a matching races its peers' θlb updates. (Iterations are not
// comparable: the oracle's solver is the dense reference.)
// How the rest splits into IUBPruned and NoEM is over one partition: a
// partition of several drains under whatever θlb the others have reached by
// then, and what it hands over late is pruned by post-processing instead.
func TestInternedEngineMatchesOracleRandom(t *testing.T) {
	type instance struct {
		label string
		repo  *sets.Repository
		src   index.NeighborSource
		opts  Options
		query []string
	}
	var table []instance
	for seed := int64(300); seed < 330; seed++ {
		repo, model, query := randomInstance(seed)
		opts := Options{K: 1 + int(seed%7), Alpha: 0.55 + 0.1*float64(seed%4)}
		table = append(table, instance{fmt.Sprint("seed ", seed), repo, index.NewFuncIndex(repo.Vocabulary(), model), opts, query})
		if seed%3 != 0 {
			continue
		}
		quantised := index.NewFuncIndex(repo.Vocabulary(), quantSim{model})
		for _, parts := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				opts.Partitions, opts.Workers = parts, workers
				table = append(table, instance{fmt.Sprintf("seed %d quantised, %d partitions, %d workers", seed, parts, workers), repo, quantised, opts, query})
			}
		}
	}
	tieVerifications, skipped := 0, 0
	for _, in := range table {
		got, gs := NewEngine(in.repo, in.src, in.opts).Search(in.query)
		want, ws := newOracleEngine(in.repo, in.src, in.opts).Search(in.query)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: results diverge\ninterned: %v\noracle:   %v", in.label, got, want)
		}
		equal := gs.Candidates == ws.Candidates && gs.EMEarly+gs.EMFull == ws.EMEarly+ws.EMFull
		if in.opts.Workers <= 1 {
			equal = equal && gs.EMEarly == ws.EMEarly && gs.EMFull == ws.EMFull
		}
		if in.opts.Partitions <= 1 {
			equal = equal && gs.IUBPruned == ws.IUBPruned && gs.NoEM == ws.NoEM
		}
		if !equal {
			t.Fatalf("%s: stats diverge\ninterned: %+v\noracle:   %+v", in.label, gs, ws)
		}
		if in.opts.Partitions > 1 {
			tieVerifications += gs.EMEarly + gs.EMFull
		}
		skipped += gs.PostingsSkipped
	}
	if skipped == 0 {
		t.Fatal("no posting was skipped: the stream-wide bound went unexercised")
	}
	if tieVerifications == 0 {
		t.Fatal("no quantised instance over several partitions verified a set: post-processing's order went untested")
	}
}
