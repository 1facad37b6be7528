package core

import (
	"fmt"
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
// implementations differ only in data representation, never in algorithm.

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
	lbScore  float64
	mRem     int32
	pruned   bool
	qMask    []uint64
	cMatched map[string]struct{}
}

type oracleEngine struct {
	repo  *sets.Repository
	src   index.NeighborSource
	opts  Options
	parts [][]int
	invs  []*index.Inverted
}

func newOracleEngine(repo *sets.Repository, src index.NeighborSource, opts Options) *oracleEngine {
	opts = opts.withDefaults()
	e := &oracleEngine{repo: repo, src: src, opts: opts}
	e.parts = repo.Partition(opts.Partitions, partitionSeed)
	e.invs = make([]*index.Inverted, len(e.parts))
	for i, p := range e.parts {
		e.invs[i] = index.NewInvertedSubset(repo, p)
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
	partStats := make([]Stats, len(e.parts))
	partSurv := make([][]survivor, len(e.parts))
	var wg sync.WaitGroup
	for i := range e.parts {
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
	llb := pqueue.NewTopK(e.opts.K)
	for _, sv := range survivors {
		llb.Update(sv.setID, sv.lb)
	}
	theta.Update(llb.Bottom())
	results := e.postproc(query, cache, survivors, llb, theta, &stats)

	if e.opts.ExactScores {
		for i, r := range results {
			if r.Verified {
				continue
			}
			res := e.verify(query, cache, e.repo.Set(r.SetID), theta)
			stats.HungarianIterations += res.Iterations
			stats.FinalizeEM++
			results[i].Score = res.Score
			results[i].Verified = true
		}
		sort.Slice(results, func(i, j int) bool {
			if results[i].Score != results[j].Score {
				return results[i].Score > results[j].Score
			}
			return results[i].SetID < results[j].SetID
		})
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

func (e *oracleEngine) refinePartition(query []string, tuples []oracleTuple, inv *index.Inverted, theta *atomicMax, stats *Stats) []survivor {
	opts := e.opts
	state := make(map[int32]*oracleCand)
	buckets := pqueue.NewBuckets()
	llb := pqueue.NewTopK(opts.K)
	qWords := (len(query) + 63) / 64
	lastPruneTheta := 0.0

	markPruned := func(key int, _ float64, _ int) {
		state[int32(key)].pruned = true
		stats.IUBPruned++
	}

	for ti, tup := range tuples {
		s := tup.sim
		for _, sid := range inv.Sets(tup.token) {
			st := state[sid]
			if st == nil {
				stats.Candidates++
				c := e.repo.Set(int(sid))
				slots := min(len(query), len(c.Elements))
				st = &oracleCand{
					mRem:     int32(slots),
					qMask:    make([]uint64, qWords),
					cMatched: make(map[string]struct{}, 4),
				}
				state[sid] = st
				if !opts.DisableIUB {
					if t := theta.Load(); t > 0 && float64(slots)*s < t-pruneEps {
						st.pruned = true
						stats.IUBPruned++
						continue
					}
					buckets.Insert(int(sid), slots, 0)
				}
			}
			if st.pruned {
				continue
			}
			if tup.first && st.mRem > 0 {
				st.ubSum += s
				st.mRem--
				if !opts.DisableIUB {
					buckets.Move(int(sid), int(st.mRem), st.ubSum)
				}
			}
			w, bit := tup.qIdx/64, uint64(1)<<(tup.qIdx%64)
			if st.qMask[w]&bit == 0 {
				if _, used := st.cMatched[tup.token]; !used {
					st.qMask[w] |= bit
					st.cMatched[tup.token] = struct{}{}
					st.lbScore += s
					if llb.Update(int(sid), st.lbScore) {
						theta.Update(llb.Bottom())
					}
				}
			}
		}
		if !opts.DisableIUB {
			t := theta.Load()
			if t > lastPruneTheta || ti%pruneEvery == pruneEvery-1 {
				lastPruneTheta = t
				buckets.Prune(s, t-pruneEps, markPruned)
			}
		}
	}

	finalTheta := theta.Load()
	var out []survivor
	for sid, st := range state {
		if st.pruned {
			continue
		}
		if !opts.DisableIUB && finalTheta > 0 && st.ubSum < finalTheta-pruneEps {
			stats.IUBPruned++
			continue
		}
		out = append(out, survivor{setID: int(sid), lb: st.lbScore, ub: st.ubSum})
	}
	return out
}

func (e *oracleEngine) postproc(query []string, cache map[string][]oracleEdge, survivors []survivor, llb *pqueue.TopK, theta *atomicMax, stats *Stats) []Result {
	opts := e.opts
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

	refill := func() {
		for lub.Len() < k && qub.Len() > 0 {
			top := qub.Pop()
			if dropped[top.sid] || lub.Contains(top.sid) || top.ub != ub[top.sid] {
				continue
			}
			if t := theta.Load(); top.ub < t-pruneEps {
				dropped[top.sid] = true
				continue
			}
			lub.Update(top.sid, top.ub)
		}
	}

	apply := func(sid int, res matching.Result) {
		stats.HungarianIterations += res.Iterations
		if res.Pruned {
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
		lub.Remove(sid)
		ub[sid] = so
		qub.Push(ubEntry{ub: so, sid: sid})
	}

	for {
		refill()
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
			if !lub.Full() || (!opts.DisableNoEM && lb[key] >= lub.Bottom()) {
				checked[key] = true
				mutated = true
			}
		}
		if mutated {
			continue
		}
		pending := make([]int, 0, k)
		for _, key := range lub.Keys() {
			if !checked[key] {
				pending = append(pending, key)
			}
		}
		if len(pending) == 0 {
			break
		}
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
			apply(sid, e.verify(query, cache, e.repo.Set(sid), theta))
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
				ch <- vres{sid: sid, res: e.verify(query, cache, e.repo.Set(sid), theta)}
			}(sid)
		}
		go func() { wg.Wait(); close(ch) }()
		for v := range ch {
			apply(v.sid, v.res)
		}
	}

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
	return out
}

func (e *oracleEngine) verify(query []string, cache map[string][]oracleEdge, c sets.Set, theta *atomicMax) matching.Result {
	rowOf := make(map[int32]int)
	var rows []int32
	type colEdges struct {
		edges []oracleEdge
	}
	var cols []colEdges
	for _, tok := range c.Elements {
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
	if theta != nil && !e.opts.DisableEarlyTerm {
		bound = theta.Load
	}
	// Mirror of the engine's verification sandwich (verify.go): same maxima,
	// same prune decisions, so EMEarly/EMFull accounting stays comparable
	// bit for bit. The solver below is the dense reference, not the engine's
	// sparse one.
	var rowMax, colMax []float64
	if !e.opts.DisableSandwich {
		rowMax = make([]float64, len(rows))
		colMax = make([]float64, len(cols))
		colRows := make([][]int32, len(cols))
		for j, ce := range cols {
			adj := make([]int32, len(ce.edges))
			for k, ed := range ce.edges {
				r := rowOf[ed.qIdx]
				adj[k] = int32(r)
				if ed.sim > rowMax[r] {
					rowMax[r] = ed.sim
				}
				if ed.sim > colMax[j] {
					colMax[j] = ed.sim
				}
			}
			colRows[j] = adj
		}
		if matching.SandwichPrune(rowMax, colMax, colRows, bound) {
			return matching.Result{Pruned: true, Skipped: true}
		}
	}
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
// fully deterministic, so equality is exact, not approximate.
func TestInternedEngineMatchesStringOracle(t *testing.T) {
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
				// DisableLazy pins the interned engine to the eager pipeline
				// the oracle implements: this test compares data
				// representations (strings vs interned IDs), so both sides
				// must run the same algorithm tuple for tuple — stats
				// included. Lazy-vs-eager equivalence has its own suite
				// (lazy_equiv_test.go).
				opts := Options{K: 10, Alpha: 0.8, ExactScores: withExact, DisableLazy: true}
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
						gs.EMEarly != ws.EMEarly || gs.EMFull != ws.EMFull ||
						gs.NoEM != ws.NoEM || gs.StreamTuples != ws.StreamTuples {
						t.Fatalf("query %d (exact=%v): stats diverge\ninterned: %+v\noracle:   %+v",
							qi, withExact, gs, ws)
					}
				}
			}
		})
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
// then, and what it hands over late is pruned by post-processing instead
// (replay_test.go's finalSurvivors).
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
		opts := Options{K: 1 + int(seed%7), Alpha: 0.55 + 0.1*float64(seed%4), DisableLazy: true}
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
	tieVerifications := 0
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
	}
	if tieVerifications == 0 {
		t.Fatal("no quantised instance over several partitions verified a set: post-processing's order went untested")
	}
}
