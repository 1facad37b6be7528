package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/pqueue"
	"repro/internal/sets"
	"repro/internal/sim"
)

// This file keeps a string-keyed mirror of refinement as an oracle for
// what the reference model cannot check: which sets a search meets and
// which of them its filters prune. Tokens are compared and hashed as
// strings, the edge cache is a map[string][]oracleEdge, and candidate state
// lives in a map[int32]*oracleCand. The interned engine must count the same
// Candidates and IUBPruned. The two differ in data representation, and in
// when the iUB filter prunes (oracleEngine.refinePartition), never in what
// it prunes. The θlb seed is mirrored too (oracleEngine.seed), with the
// exact scores of the sets it solves taken from internal/model, and so is
// what the walk does with those sets: it passes over them, their scores in
// its Llb, and the drain checks them at those scores. Answers are
// the model's; what post-processing does with the survivors is pinned only
// by the identity NoEM + EMEarly + EMFull = Candidates − IUBPruned.

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
	rk   *model.Ranker
	opts Options
	invs []*index.Inverted
}

// newOracleEngine mirrors an engine over repo and src; fn is src's
// similarity, through which the model scores the sets the seed solves.
func newOracleEngine(repo *sets.Repository, src index.NeighborSource, fn sim.Func, opts Options) *oracleEngine {
	opts = opts.withDefaults()
	e := &oracleEngine{repo: repo, src: src, rk: model.NewRanker(repo.Sets(), fn, opts.Alpha), opts: opts}
	n := repo.Len()
	np := max(min(opts.Partitions, n), 1)
	for p := range np {
		e.invs = append(e.invs, index.NewInvertedSubset(repo, p*n/np, (p+1)*n/np))
	}
	return e
}

// walk returns the stream's length, the candidates the walk met and those
// it pruned.
func (e *oracleEngine) walk(t *testing.T, query []string) Stats {
	var stats Stats
	query = sets.Dedup(query)
	if len(query) == 0 {
		return stats
	}
	tuples, cache := e.materializeStream(query)
	stats.StreamTuples = len(tuples)
	theta := &atomicMax{}
	seed, solved := e.seed(t, query, tuples, cache)
	theta.Update(seed)
	partStats := make([]Stats, len(e.invs))
	var wg sync.WaitGroup
	for i := range e.invs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.refinePartition(query, tuples, i, solved, theta, &partStats[i])
		}(i)
	}
	wg.Wait()
	for i := range partStats {
		stats.add(&partStats[i])
	}
	return stats
}

func (e *oracleEngine) materializeStream(query []string) ([]oracleTuple, map[string][]oracleEdge) {
	st := index.NewStream(query, e.src, e.opts.Alpha)
	defer st.Release()
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
// returns the least score, 0 with fewer than k sets of nonzero bound, and
// the exact scores of the sets it solved.
func (e *oracleEngine) seed(t *testing.T, query []string, tuples []oracleTuple, cache map[string][]oracleEdge) (float64, map[int32]float64) {
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
	seed, solved := math.Inf(1), make(map[int32]float64)
	for _, sid := range top[:k] {
		used := make(map[int32]bool)
		w := 0.0
		for _, tok := range e.repo.Elements(sid) {
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
			w = modelScore(t, e.rk, query, sid)
			solved[int32(sid)] = w
		}
		seed = min(seed, w)
	}
	return seed, solved
}

// refinePartition is Algorithm 1 with the paper's filters in their plain
// form: Lemma 2's UB filter at a set's first sight, and the iUB filter every
// oraclePruneEvery tuples and whenever θlb rose, testing every live
// candidate with its true bound; the candidates left are tested once more
// under the final θlb, as the drain does. The engine has neither plain
// filter — its stream-wide bound and its drain prune the same candidates —
// so the counts the two must agree on say that nothing either filter would
// prune escapes. The sets of partition p the seed solved are candidates
// before the walk starts, with their scores in the Llb; the walk passes
// over them and the final test takes each at its score.
func (e *oracleEngine) refinePartition(query []string, tuples []oracleTuple, p int, solved map[int32]float64, theta *atomicMax, stats *Stats) {
	inv := e.invs[p]
	state := make(map[int32]*oracleCand)
	llb := pqueue.NewTopK(e.opts.K)
	qWords := (len(query) + 63) / 64
	lastPruneTheta := 0.0
	n, np := e.repo.Len(), len(e.invs)
	for sid, score := range solved {
		if int(sid) < p*n/np || int(sid) >= (p+1)*n/np {
			continue
		}
		stats.Candidates++
		state[sid] = &oracleCand{pruned: true}
		if llb.Update(int(sid), score) {
			theta.Update(llb.Bottom())
		}
	}

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
			if tup.first && st.mRem > 0 {
				st.ubSum += s
				st.mRem--
			}
			if !st.qSeen[tup.qIdx] {
				st.qSeen[tup.qIdx] = true
				if st.rRem > 0 {
					st.rowSum += s
					st.rRem--
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
	if t := theta.Load(); t > 0 {
		for sid, st := range state {
			score, seeded := solved[sid]
			if seeded && score < t-pruneEps || !st.pruned && st.bound(0) < t-pruneEps {
				stats.IUBPruned++
			}
		}
	}
}

// checkFunnel holds the engine's statistics to the mirror's walk: equal
// Candidates and stream length, and IUBPruned too where samePruned (one
// partition: several drain under whatever θlb the others have reached, and
// what one hands over late is pruned by post-processing instead). Every
// candidate not pruned must then be counted once by post-processing.
func checkFunnel(t *testing.T, label string, got, walk Stats, samePruned bool) {
	t.Helper()
	if got.Candidates != walk.Candidates || got.StreamTuples != walk.StreamTuples || samePruned && got.IUBPruned != walk.IUBPruned {
		t.Fatalf("%s: stats diverge\ninterned: %+v\noracle:   %+v", label, got, walk)
	}
	if got.NoEM+got.EMEarly+got.EMFull != got.Candidates-got.IUBPruned {
		t.Fatalf("%s: NoEM %d + EMEarly %d + EMFull %d != Candidates %d − IUBPruned %d",
			label, got.NoEM, got.EMEarly, got.EMFull, got.Candidates, got.IUBPruned)
	}
}

// TestInternedEngineMatchesStringOracle is the equivalence test for the
// token-interning refactor: on every dataset kind, the interned engine must
// return the reference model's answer and count the candidates and pruning
// of the string-path mirror above. Partitions=1 and Workers=1 keep both
// fully deterministic, so equality is exact, not approximate. The mirror
// walks every posting; the engine must have skipped some on the
// stream-wide bound (DESIGN.md §2), or the comparison says nothing about
// the skip.
func TestInternedEngineMatchesStringOracle(t *testing.T) {
	skipped := 0
	for _, kind := range datagen.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.02)
			src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
			fn := sourceSim{src}
			queries := datagen.NewBenchmark(ds, 17).Queries
			if len(queries) > 4 {
				queries = queries[:4]
			}
			for _, withExact := range []bool{false, true} {
				opts := Options{K: 10, Alpha: 0.8, ExactScores: withExact}
				eng := NewEngine(ds.Repo, src, opts)
				oracle := newOracleEngine(ds.Repo, src, fn, opts)
				for qi, q := range queries {
					got, gs := eng.Search(q.Elements)
					checkTopK(t, ds.Repo, fn, q.Elements, opts.Alpha, opts.K, got)
					checkFunnel(t, fmt.Sprintf("query %d (exact=%v)", qi, withExact), gs, oracle.walk(t, q.Elements), true)
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
// set-ID order, with one verification worker and with four. The answer
// must be the model's, and the funnel the mirror's (checkFunnel).
func TestInternedEngineMatchesOracleRandom(t *testing.T) {
	type instance struct {
		label string
		repo  *sets.Repository
		fn    sim.Func
		opts  Options
		query []string
	}
	var table []instance
	for seed := int64(300); seed < 330; seed++ {
		repo, emb, query := randomInstance(seed)
		opts := Options{K: 1 + int(seed%7), Alpha: 0.55 + 0.1*float64(seed%4)}
		table = append(table, instance{fmt.Sprint("seed ", seed), repo, emb, opts, query})
		if seed%3 != 0 {
			continue
		}
		for _, parts := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				opts.Partitions, opts.Workers = parts, workers
				table = append(table, instance{fmt.Sprintf("seed %d quantised, %d partitions, %d workers", seed, parts, workers), repo, quantSim{emb}, opts, query})
			}
		}
	}
	tieVerifications, skipped := 0, 0
	for _, in := range table {
		src := index.NewFuncIndex(in.repo.Vocabulary(), in.fn)
		got, gs := NewEngine(in.repo, src, in.opts).Search(in.query)
		checkTopK(t, in.repo, in.fn, in.query, in.opts.Alpha, in.opts.K, got)
		checkFunnel(t, in.label, gs, newOracleEngine(in.repo, src, in.fn, in.opts).walk(t, in.query), in.opts.Partitions <= 1)
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
