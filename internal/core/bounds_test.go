package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/sets"
	"repro/internal/sim"
)

func newTestRepo(t *testing.T, elems [][]string) *sets.Repository {
	t.Helper()
	raw := make([]sets.Set, len(elems))
	for i, e := range elems {
		raw[i] = sets.Set{Elements: e}
	}
	return sets.NewRepository(raw)
}

// checkBoundsEveryPrefix is the white-box test of the corrected iUB bound,
// the iLB greedy bound and the stream-wide set bound (DESIGN.md §2). It
// consumes query's stream one tuple at a time under a k larger than the
// repository, so θlb stays 0 and every candidate stays alive, and after each
// tuple, at its level s, holds every candidate's exact semantic overlap to
// lb ≤ SO, to the column side SO ≤ ubSum + mRem·s and to the query side
// SO ≤ rowSum + rRem·s, each on its own, and its set bound to at least
// ubSum. At a set's first sight its bound must be at most Lemma 2's
// min(|Q|,|C|)·s, up to a relative n·2⁻⁵² for the rounding of a sum of n
// terms: the bound skip then decides every set Lemma 2's check would prune
// there. Once the stream is exhausted every set's bound must be its column
// side's sum bit for bit, and at least SO − matching.BoundEps, and the θlb
// seed drawn from the bounds (Group.seedTheta) for k = 3 at most the third
// largest SO. After the drain the survivors' [lb, ub] must contain SO, with
// lb at least half of it. Last, a search for the top 3 must hand
// post-processing no set the bound settled, and a set the θlb seed took out
// of the walk (seededBound) only if the seed solved it, at its kept score
// as all four bounds, that score at most its stream-wide bound.
func checkBoundsEveryPrefix(t *testing.T, label string, repo *sets.Repository, fn sim.Func, alpha float64, query []string) {
	t.Helper()
	query = sets.Dedup(query)
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	eng := NewEngine(repo, src, Options{K: repo.Len() + 1, Alpha: alpha})
	so := make([]float64, repo.Len())
	rk := model.NewRanker(repo.Sets(), fn, alpha)
	for sid := range so {
		so[sid] = modelScore(t, rk, query, sid)
	}
	qids := repo.TokenIDs(query)
	tuples, _ := eng.materializeStream(query, qids, eng.getScratch())
	var stats Stats
	r := eng.newRefiner(len(query), 0, &atomicMax{}, &stats, nil)
	rb := eng.newRefiner(len(query), 0, &atomicMax{}, &Stats{}, nil)
	sc := eng.getScratch()
	walk, cache, _ := eng.openStream(query, qids, nil, alpha, nil, sc)
	rb.addBounds(walk)
	bound := rb.bound
	for sid, b := range bound {
		if b < so[sid]-matching.BoundEps {
			t.Fatalf("%s: set %d: bound %v below exact SO %v", label, sid, b, so[sid])
		}
	}
	const k = 3
	g := eng.group()
	g.Opts.K = k
	seed := g.seedTheta(cache, bound, len(query), []int{0, repo.Len()}, sc, &verifyScratch{}, &Stats{})
	desc := slices.Clone(so)
	slices.SortFunc(desc, func(a, b float64) int { return cmp.Compare(b, a) })
	if seed > 0 && (len(desc) < k || seed > desc[k-1]+1e-9) {
		t.Fatalf("%s: θlb seed %v above the k-th largest exact SO (k = %d, SOs %v)", label, seed, k, desc)
	}
	seen := make([]bool, repo.Len())
	for i := range tuples {
		r.consume(context.Background(), tuples[i:i+1])
		s := tuples[i].sim // no later tuple is more similar
		for sid := range r.states {
			if r.flags[sid] == setUnseen {
				continue
			}
			if !seen[sid] {
				seen[sid] = true
				n := float64(min(len(query), int(eng.card[sid])))
				if lemma2 := n * s; bound[sid] > lemma2*(1+n*0x1p-52) {
					t.Fatalf("%s: set %d first met at level %v: bound %v above Lemma 2's min(|Q|,|C|)·s = %v", label, sid, s, bound[sid], lemma2)
				}
			}
			st := &r.states[sid]
			exact := so[sid]
			col, row := st.ubSum+float64(st.mRem)*s, st.rowSum+float64(st.rRem)*s
			if st.lbScore > exact+1e-9 || exact > col+1e-9 || exact > row+1e-9 {
				t.Fatalf("%s: set %d after tuple %d (level %v): lb %v, exact SO %v, column side %v, query side %v",
					label, sid, i, s, st.lbScore, exact, col, row)
			}
			if b := bound[sid]; b < st.ubSum {
				t.Fatalf("%s: set %d after tuple %d: bound %v below ubSum %v", label, sid, i, b, st.ubSum)
			}
		}
	}
	for sid := range r.states {
		if b, col := bound[sid], r.states[sid].ubSum; math.Float64bits(b) != math.Float64bits(col) {
			t.Fatalf("%s: set %d: bound %v, final column side %v", label, sid, b, col)
		}
	}
	live := NewEngine(repo, src, Options{K: k, Alpha: alpha})
	live.survivorHook = func(svs []survivor, bounds []float64, seeds []seedScore) {
		for _, sv := range svs {
			switch b := bounds[sv.setID]; {
			case b == seededBound:
				i, solved := slices.BinarySearchFunc(seeds, sv.setID, func(s seedScore, gid int) int { return cmp.Compare(s.gid, gid) })
				if !solved {
					t.Errorf("%s: set %d handed over as a seed set the seed did not solve", label, sv.setID)
					continue
				}
				kept := math.Float64bits(seeds[i].score)
				if math.Float64bits(sv.lb) != kept || math.Float64bits(sv.ub) != kept || math.Float64bits(sv.lo) != kept || math.Float64bits(sv.hi) != kept {
					t.Errorf("%s: seed set %d handed over at %+v, its kept score %v", label, sv.setID, sv, seeds[i].score)
				}
				if seeds[i].score > bound[sv.setID]+matching.BoundEps {
					t.Errorf("%s: seed set %d: kept score %v above its stream-wide bound %v", label, sv.setID, seeds[i].score, bound[sv.setID])
				}
			case b < 0:
				t.Errorf("%s: set %d, settled (bound %v), handed to post-processing", label, sv.setID, b)
			}
		}
	}
	live.Search(query)
	survivors := r.drain()
	if len(survivors) != stats.Candidates {
		t.Fatalf("%s: %d survivors, %d candidates (θlb 0)", label, len(survivors), stats.Candidates)
	}
	for _, sv := range survivors {
		exact := so[sv.setID]
		if sv.lb > exact+1e-9 {
			t.Fatalf("%s: set %d: lb %v exceeds exact SO %v", label, sv.setID, sv.lb, exact)
		}
		if sv.ub < exact-1e-9 {
			t.Fatalf("%s: set %d: ub %v below exact SO %v (unsound upper bound)", label, sv.setID, sv.ub, exact)
		}
		// The greedy lower bound is a ½-approximation (Lemma 3).
		if sv.lb < exact/2-1e-9 {
			t.Fatalf("%s: set %d: lb %v below half of SO %v", label, sv.setID, sv.lb, exact)
		}
	}
}

// TestRefinementBoundsSound checks both sides of the bound and the greedy
// lower bound at every stream prefix of randomized instances.
func TestRefinementBoundsSound(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		repo, model, query := randomInstance(seed)
		checkBoundsEveryPrefix(t, fmt.Sprint("seed ", seed), repo, model, 0.55+float64(seed%4)*0.1, query)
	}
}

// FuzzRefinementBounds: bytes → vocabulary size, α, a similarity table in
// steps of 0.05 (ties everywhere), a query and sets under shuffled names;
// lb ≤ exact SO ≤ each side of the bound at every prefix
// (checkBoundsEveryPrefix), and the answer of a search — one partition and
// worker, and three of each, with exact scores and without — is the
// brute-force top-k under the rule (checkTopK).
func FuzzRefinementBounds(f *testing.F) {
	for _, seed := range refinementBoundsSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkRefinementBoundsInput)
}

// refinementBoundsSeeds are FuzzRefinementBounds' seed inputs.
var refinementBoundsSeeds = [][]byte{
	{12, 3, 7, 0, 1, 2, 3, 0x80, 1, 2, 4, 0x80, 2, 3, 5, 6, 0x80, 7, 8, 1, 0x80, 3, 9, 10, 0x80, 1, 11},
	{6, 0, 9, 0, 1, 0x80, 0, 2, 0x80, 1, 3, 0x80, 4, 5, 0, 0x80, 2, 3},
	{23, 6, 3, 1, 3, 5, 7, 9, 11, 0x80, 2, 4, 6, 8, 0x80, 1, 2, 3, 0x80, 9, 10, 11, 12, 0x80, 20, 21, 22},
	// Three sets tie at 2.65 for k = 1; one's bounds are sums that round an
	// ulp above it. Taken as exact, they admit that set, not s0.
	[]byte("0211\"711\xd3000\xbc2cA\xcfcX\"00000000\xcb000000000000000000000017000\x8000"),
}

// checkRefinementBoundsInput is FuzzRefinementBounds on one input.
func checkRefinementBoundsInput(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	nTok := 4 + int(data[0])%20
	alpha := 0.5 + 0.05*float64(data[1]%10)
	rng := rand.New(rand.NewSource(int64(data[2])))
	fn := tableSim{ids: make(map[string]int), tab: make([][]float64, nTok)}
	for i := range fn.tab {
		fn.ids[fmt.Sprint("t", i)] = i
		fn.tab[i] = make([]float64, nTok)
		for j := 0; j < i; j++ {
			if rng.Intn(3) > 0 {
				s := float64(9+rng.Intn(12)) / 20 // 0.45 … 1.00
				fn.tab[i][j], fn.tab[j][i] = s, s
			}
		}
	}
	var raw [][]string
	cur, in := []string(nil), map[byte]bool{}
	for _, b := range data[3:] {
		if b&0x80 != 0 {
			raw, cur, in = append(raw, cur), nil, map[byte]bool{}
			continue
		}
		if tok := b % byte(nTok); !in[tok] {
			in[tok] = true
			cur = append(cur, fmt.Sprint("t", tok))
		}
	}
	raw = append(raw, cur)
	var coll []sets.Set
	for _, elems := range raw[1:] {
		if len(elems) > 0 && len(coll) < 200 {
			coll = append(coll, sets.Set{Elements: elems})
		}
	}
	if len(raw[0]) == 0 || len(coll) == 0 {
		return
	}
	for i, name := range rng.Perm(len(coll)) {
		coll[i].Name = fmt.Sprint("s", name)
	}
	repo := sets.NewRepository(coll)
	label := fmt.Sprintf("α=%.2f", alpha)
	checkBoundsEveryPrefix(t, label, repo, fn, alpha, raw[0])
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	k := 1 + int(data[1]/10)%5
	for _, opts := range []Options{
		{K: k, Alpha: alpha, ExactScores: true},
		{K: k, Alpha: alpha},
		{K: k, Alpha: alpha, Partitions: 3, Workers: 3, ExactScores: true},
		{K: k, Alpha: alpha, Partitions: 3, Workers: 3},
	} {
		results, _ := NewEngine(repo, src, opts).Search(raw[0])
		checkTopK(t, repo, fn, raw[0], alpha, k, results)
	}
}

// TestBoundFilterPortable runs TestSearchPartitionsAgree's partition-count
// comparisons (the workload-shape variants exercise the tie rule, which the
// filter does not decide) and FuzzRefinementBounds' seeds with the walk's
// bound filter on its portable loop, index.PartitionPostingsGo, and holds ten benchmark queries per
// datagen shape, with every fourth set tombstoned, to the answers and
// counters the dispatched filter gives (the AVX-512F kernel on a CPU that
// has it): the same result IDs and score bits, and every Stats counter.
func TestBoundFilterPortable(t *testing.T) {
	untimed := func(s Stats) Stats {
		s.RefineTime, s.PostprocTime, s.StreamTime, s.BoundTime, s.WalkTime, s.DrainTime, s.VerifyTime = 0, 0, 0, 0, 0, 0, 0
		return s
	}
	type search struct {
		g     *Group
		query []string
	}
	var searches []search
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		eng := NewEngine(ds.Repo, index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector), Options{K: 10, Alpha: 0.8, ExactScores: true})
		dead := make([]uint64, (ds.Repo.Len()+63)/64)
		for sid := 0; sid < ds.Repo.Len(); sid += 4 {
			dead[sid>>6] |= 1 << (uint(sid) & 63)
		}
		g := eng.group()
		g.Dead = [][]uint64{dead}
		queries := datagen.NewBenchmark(ds, 17).Queries
		for _, q := range queries[:min(10, len(queries))] {
			searches = append(searches, search{g, q.Elements})
		}
	}
	run := func(s search) ([]GroupResult, Stats) {
		res, st, err := s.g.SearchContext(context.Background(), s.query)
		if err != nil {
			t.Fatal(err)
		}
		return res, untimed(st)
	}
	want := make([][]GroupResult, len(searches))
	wantStats := make([]Stats, len(searches))
	for i, s := range searches {
		want[i], wantStats[i] = run(s)
	}

	dispatched := partitionPostings
	defer func() { partitionPostings = dispatched }()
	partitionPostings = index.PartitionPostingsGo
	skipped := 0
	for i, s := range searches {
		got, st := run(s)
		if !slices.EqualFunc(got, want[i], func(a, b GroupResult) bool {
			return a.Seg == b.Seg && a.Local == b.Local && a.Verified == b.Verified && math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}) {
			t.Fatalf("search %d: portable filter answers %v, dispatched %v", i, got, want[i])
		}
		if st != wantStats[i] {
			t.Fatalf("search %d: portable filter counts %+v, dispatched %+v", i, st, wantStats[i])
		}
		skipped += st.PostingsSkipped
	}
	if skipped == 0 {
		t.Fatal("no posting skipped: the filter was never exercised")
	}
	t.Run("PartitionsAgree", checkPartitionCounts)
	t.Run("RefinementBounds", func(t *testing.T) {
		for _, seed := range refinementBoundsSeeds {
			checkRefinementBoundsInput(t, seed)
		}
	})
}

// TestSeedPicksTopBounds: the θlb seed (Group.seedTheta) matches exactly
// the sets a brute-force top-k picks — the k live sets of nonzero bound
// with the largest bounds, by bound descending, then group-wide ID
// ascending — over three segments, two with tombstones, under random
// bounds drawn from a few values (zeros and exact ties everywhere), for k
// from 1 to more than the live sets; and it seeds nothing (0) when fewer
// than k such sets exist. (The bounds are not the stream's, so a seed
// drawn from them need not bound anything.)
func TestSeedPicksTopBounds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo, model, query := randomInstance(seed)
		query = sets.Dedup(query)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		n := repo.Len()
		g := &Group{Opts: Options{Alpha: 0.7}}
		base := []int{0}
		for si := 0; si < 3; si++ {
			g.Engines = append(g.Engines, NewEngine(repo, src, Options{K: 3, Alpha: 0.7}))
			var dead []uint64
			if si > 0 {
				dead = make([]uint64, (n+63)/64)
				for sid := 0; sid < n; sid++ {
					if rng.Intn(4) == 0 {
						dead[sid>>6] |= 1 << (uint(sid) & 63)
					}
				}
			}
			g.Dead = append(g.Dead, dead)
			base = append(base, base[si]+n)
		}
		sc := g.Engines[0].getScratch()
		_, cache, _ := g.Engines[0].openStream(query, repo.TokenIDs(query), nil, 0.7, nil, sc)
		bound := make([]float64, base[3])
		for gid := range bound {
			if rng.Intn(3) > 0 {
				bound[gid] = float64(rng.Intn(6)) / 2
			}
		}
		var live []seedSet
		for gid, b := range bound {
			si, local := gid/n, gid%n
			if b > 0 && (g.Dead[si] == nil || g.Dead[si][local>>6]&(1<<(uint(local)&63)) == 0) {
				live = append(live, seedSet{gid: gid, bound: b})
			}
		}
		slices.SortFunc(live, func(a, b seedSet) int {
			return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.gid, b.gid))
		})
		for _, k := range []int{1, 2, 3, 10, len(live), len(live) + 1} {
			if k == 0 {
				continue
			}
			g.Opts.K = k
			got := g.seedTheta(cache, bound, len(query), base, sc, &verifyScratch{}, &Stats{})
			want := live[:min(k, len(live))]
			if !slices.Equal(sc.seeds, want) {
				t.Fatalf("seed %d, k = %d: seeds %v, want %v", seed, k, sc.seeds, want)
			}
			if len(live) < k && got != 0 {
				t.Fatalf("seed %d, k = %d: θlb seed %v from %d live sets", seed, k, got, len(live))
			}
		}
	}
}

// TestPostingSkipShare logs, per datagen shape, the share of the postings
// refinement met that the stream-wide set bound (DESIGN.md §2) let it skip,
// the postings met and walked per query, and the queries whose θlb seed
// raised θlb, over ten benchmark queries at scale 0.05 under the serving
// options. It requires some postings skipped and some queries seeded on
// every shape. CI prints its line.
func TestPostingSkipShare(t *testing.T) {
	var shares []string
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
		eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: true})
		queries := datagen.NewBenchmark(ds, 17).Queries
		met, skipped, seeded := 0, 0, 0
		queries = queries[:min(10, len(queries))]
		for _, q := range queries {
			_, st := eng.Search(q.Elements)
			met, skipped = met+st.Postings, skipped+st.PostingsSkipped
			if seed, _, _ := eng.seedFor(q.Elements, nil); seed > 0 {
				seeded++
			}
		}
		if skipped == 0 {
			t.Errorf("%s: none of %d postings skipped", kind, met)
		}
		if seeded == 0 {
			t.Errorf("%s: the seed raised θlb on none of %d queries", kind, len(queries))
		}
		shares = append(shares, fmt.Sprintf("%s %.2f (%d postings met, %d walked per query; seeded %d of %d)", kind,
			float64(skipped)/float64(max(met, 1)), met/len(queries), (met-skipped)/len(queries), seeded, len(queries)))
	}
	t.Logf("posting skip share: %s", strings.Join(shares, ", "))
}

// TestSeedBelowKthOverlap: on the four datagen shapes, with every fourth set
// tombstoned and, per query, the set with the largest stream-wide bound as
// well, the θlb seed (DESIGN.md §2) is at most the k-th largest exact
// semantic overlap among the live sets — under ExactScores bit for bit,
// without it up to 1e-9, since an unsolved set's greedy weight is summed in
// set order — none of the sets it took is tombstoned, and it raises θlb on
// every shape. The seed is the least of its sets' scores: a solved set's
// kept score, which must be the set's exact overlap bit for bit, and an
// unsolved one's greedy weight, which must meet its bound.
func TestSeedBelowKthOverlap(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		for _, exact := range []bool{false, true} {
			eng := NewEngine(ds.Repo, index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector), Options{K: 10, Alpha: 0.8, ExactScores: exact})
			n, k := ds.Repo.Len(), eng.opts.K
			isDead := func(dead []uint64, sid int) bool { return dead[sid>>6]&(1<<(uint(sid)&63)) != 0 }
			queries := datagen.NewBenchmark(ds, 17).Queries
			seeded := 0
			for qi, q := range queries[:min(10, len(queries))] {
				label := fmt.Sprintf("%s exact=%v query %d", kind, exact, qi)
				dead := make([]uint64, (n+63)/64)
				for sid := 0; sid < n; sid += 4 {
					dead[sid>>6] |= 1 << (uint(sid) & 63)
				}
				_, _, bound := eng.seedFor(q.Elements, dead)
				top := 0
				for sid, b := range bound {
					if b > bound[top] {
						top = sid
					}
				}
				dead[top>>6] |= 1 << (uint(top) & 63)
				seed, sc, bound := eng.seedFor(q.Elements, dead)
				qN := len(sets.Dedup(q.Elements))
				so := make(map[int]float64)
				var vs verifyScratch
				var desc []float64
				for sid, b := range bound {
					if b > 0 && !isDead(dead, sid) {
						edges, cols := appendGraph(vs.edges[:0], &sc.cache, ds.Repo.Set(sid).ElemIDs)
						so[sid] = eng.verify(qN, cols, edges, nil, &vs).Score
						desc = append(desc, so[sid])
					}
				}
				slices.SortFunc(desc, func(a, b float64) int { return cmp.Compare(b, a) })
				slack := 1e-9
				if exact {
					slack = 0
				}
				if len(desc) < k && seed != 0 || len(desc) >= k && seed > desc[k-1]+slack {
					t.Fatalf("%s: θlb seed %v, %d live sets reached, the k-th largest SO of them %v", label, seed, len(desc), desc[min(k, len(desc))-1])
				}
				if len(desc) < k {
					continue
				}
				want := math.Inf(1)
				for _, s := range sc.seeds {
					if isDead(dead, s.gid) {
						t.Fatalf("%s: tombstoned set %d (bound %v) seeds θlb", label, s.gid, s.bound)
					}
					i, solved := slices.BinarySearchFunc(sc.seedScores, s.gid, func(ss seedScore, gid int) int { return cmp.Compare(ss.gid, gid) })
					if solved {
						if kept := sc.seedScores[i].score; math.Float64bits(kept) != math.Float64bits(so[s.gid]) {
							t.Fatalf("%s: set %d kept score %v, exact SO %v", label, s.gid, kept, so[s.gid])
						}
						want = min(want, so[s.gid])
						continue
					}
					_, _, w := seedGreedy(nil, &sc.cache, ds.Repo.Set(s.gid).ElemIDs, make([]uint64, (qN+63)/64))
					if exact || w < s.bound {
						t.Fatalf("%s: set %d unsolved with greedy weight %v, bound %v", label, s.gid, w, s.bound)
					}
					want = min(want, w)
				}
				if math.Float64bits(seed) != math.Float64bits(want) {
					t.Fatalf("%s: θlb seed %v, the least of its sets' scores %v", label, seed, want)
				}
				if seed > 0 {
					seeded++
				}
			}
			if seeded == 0 {
				t.Errorf("%s exact=%v: the seed raised θlb on no query", kind, exact)
			}
		}
	}
}

// TestTombstonedSetsCountNothing: with every fourth set of a collection
// tombstoned, a search counts as candidates exactly the live sets its
// stream's postings reach, and as iUB prunes those it does not hand to
// post-processing — a tombstoned set is discarded uncounted whether the walk
// meets it first or the stream-wide bound settles it (DESIGN.md §2) — and
// the bound settles some sets on the way.
func TestTombstonedSetsCountNothing(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.05)
	eng := NewEngine(ds.Repo, index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector), Options{K: 10, Alpha: 0.8})
	dead := make([]uint64, (ds.Repo.Len()+63)/64)
	for sid := 0; sid < ds.Repo.Len(); sid += 4 {
		dead[sid>>6] |= 1 << (uint(sid) & 63)
	}
	g := eng.group()
	g.Dead = [][]uint64{dead}
	survivors, settled := 0, 0
	eng.survivorHook = func(svs []survivor, _ []float64, _ []seedScore) { survivors = len(svs) }
	for qi, q := range datagen.NewBenchmark(ds, 17).Queries {
		query := sets.Dedup(q.Elements)
		tuples, _ := eng.materializeStream(query, ds.Repo.TokenIDs(query), eng.getScratch())
		reached := map[int32]bool{}
		for _, tup := range tuples {
			sids, _ := eng.parts[0].inv.Postings(tup.tokenID)
			for _, sid := range sids {
				if dead[sid>>6]&(1<<(uint(sid)&63)) == 0 {
					reached[sid] = true
				}
			}
		}
		_, st, err := g.SearchContext(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != len(reached) || st.IUBPruned != st.Candidates-survivors {
			t.Fatalf("query %d: %d candidates, %d pruned; the stream reaches %d live sets and %d survive", qi, st.Candidates, st.IUBPruned, len(reached), survivors)
		}
		settled += st.BoundSettled
	}
	if settled == 0 {
		t.Fatal("the stream-wide bound settled no set")
	}
}

// TestQuerySideBoundDecides: every token of candidate C = {c1, c2, c3}
// reaches it through one query element, q1, at 0.9, so its column side ends
// at ubSum = 3·0.9 while its query side ends at rowSum = 0.9, its exact
// overlap. D = {q1, q2} holds θlb at 2 for k = 1. S = {s1, s2, s3}, whose
// tokens reach it through q1 at 0.95, has the largest bound, 3·0.95, so the
// θlb seed takes S, not C, and solves it (its greedy weight 0.95 is below
// that bound): the walk passes over S, and the drain prunes it at its kept
// score. The query side alone must prune C in refinement — the column side
// keeps it — so C, whose column side tops Lub, is never handed to
// post-processing's verification. (The seed's solve of S has no bound to
// meet.)
func TestQuerySideBoundDecides(t *testing.T) {
	ps := newPairSim()
	for _, c := range []string{"c1", "c2", "c3"} {
		ps.set("q1", c, 0.9)
	}
	for _, c := range []string{"s1", "s2", "s3"} {
		ps.set("q1", c, 0.95)
	}
	repo := newTestRepo(t, [][]string{{"c1", "c2", "c3"}, {"q1", "q2"}, {"s1", "s2", "s3"}})
	query := []string{"q1", "q2", "q3"}
	eng := NewEngine(repo, index.NewFuncIndex(repo.Vocabulary(), ps), Options{K: 1, Alpha: 0.5})

	theta, stats := &atomicMax{}, Stats{}
	r, tuples := eng.seededRefiner(query, theta, &stats)
	if len(r.seeds) != 1 || r.seeds[0].gid != 2 || r.bound[2] != seededBound {
		t.Fatalf("the seed took %v out of the walk, S's bound %v; want S alone", r.seeds, r.bound[2])
	}
	r.consume(context.Background(), tuples)
	c := &r.states[0]
	if r.flags[0]&setStatus != setLive || c.ubSum < 2.7-1e-9 || c.rowSum > 0.9+1e-9 || theta.Load() != 2 {
		t.Fatalf("C before the drain: status %d, ubSum %v, rowSum %v under θlb %v; want live, 2.7, 0.9, 2", r.flags[0], c.ubSum, c.rowSum, theta.Load())
	}
	for _, sv := range r.drain() {
		if sv.setID != 1 {
			t.Fatalf("set %d survives the drain with ub %v under θlb 2", sv.setID, sv.ub)
		}
	}
	if stats.IUBPruned != 2 || stats.IUBQueryPruned != 1 {
		t.Fatalf("refinement pruned %d, %d by the query side; want C, by the query side, and S", stats.IUBPruned, stats.IUBQueryPruned)
	}

	eng.verifyHook = func(rows, cols int, _ []matching.Edge, bound func() float64, _ matching.Result) {
		if bound != nil {
			t.Errorf("a bounded %d×%d verification ran: C reached post-processing", rows, cols)
		}
	}
	res, st := eng.Search(query)
	if fmt.Sprint(res) != "[{1 2 false}]" || st.IUBQueryPruned != 1 || st.SeedEM != 1 || st.EMFull+st.EMEarly != 0 {
		t.Fatalf("search returned %v with %d query-side prunes, %d seed solves, %d matchings in post-processing; want D at 2, C pruned by the query side after one seed solve",
			res, st.IUBQueryPruned, st.SeedEM, st.EMFull+st.EMEarly)
	}
}

// TestLemma6Counterexample reproduces DESIGN.md §2's instance: the literal
// Lemma 6 bound (greedy score + remaining·s) drops below the exact overlap,
// while the corrected bound implemented here stays above it.
func TestLemma6Counterexample(t *testing.T) {
	ps := newPairSim()
	ps.set("q1", "c1", 0.9)
	ps.set("q1", "c2", 0.899)
	ps.set("q2", "c1", 0.899)
	// Padding vocabulary so the stream continues below 0.899 (the paper
	// bound degrades as s drops; the corrected bound must not).
	ps.set("q2", "pad", 0.6)

	repo := newTestRepo(t, [][]string{
		{"c1", "c2"},
		{"pad"},
	})
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	eng := NewEngine(repo, src, Options{K: 1, Alpha: 0.5})

	query := []string{"q1", "q2"}
	tuples, _ := eng.materializeStream(query, repo.TokenIDs(query), eng.getScratch())
	theta := &atomicMax{}
	var stats Stats
	survivors := eng.refinePartition(context.Background(), len(query), tuples, 0, theta, &stats, nil)

	exact := modelScore(t, model.NewRanker(repo.Sets(), ps, 0.5), query, 0) // 0.899 + 0.899
	if exact < 1.797 || exact > 1.799 {
		t.Fatalf("exact SO = %v, want 1.798", exact)
	}
	var c0 *survivor
	for i := range survivors {
		if survivors[i].setID == 0 {
			c0 = &survivors[i]
		}
	}
	if c0 == nil {
		t.Fatal("set 0 not a survivor")
	}
	if c0.ub < exact-1e-9 {
		t.Fatalf("corrected iUB %v below exact SO %v — the Lemma 6 flaw leaked in", c0.ub, exact)
	}
	// The literal Lemma 6 value at stream end: greedy l=1, S=0.9, s=0.6 →
	// 0.9 + min(1,1)·0.6 = 1.5 < 1.798. Confirm the flaw is real (this is
	// an assertion about the paper, not about our code).
	literal := 0.9 + 1*0.6
	if literal >= exact {
		t.Fatalf("counterexample broken: literal bound %v ≥ exact %v", literal, exact)
	}
}

// TestStreamFirstFlags: the materialized stream marks exactly the first
// arrival of each token, which the UB accounting depends on.
func TestStreamFirstFlags(t *testing.T) {
	repo, model, query := randomInstance(77)
	query = sets.Dedup(query)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 3, Alpha: 0.6})
	tuples, cache := eng.materializeStream(query, repo.TokenIDs(query), eng.getScratch())
	seen := map[int32]bool{}
	inVocab := 0
	for i, tup := range tuples {
		if tup.tokenID >= 0 {
			inVocab++
			if tup.first != !seen[tup.tokenID] {
				t.Fatalf("tuple %d: first=%v but seen=%v", i, tup.first, seen[tup.tokenID])
			}
			seen[tup.tokenID] = true
		} else if !tup.first {
			// An out-of-vocabulary query element streams exactly once (its
			// identity tuple), so it is always a first arrival.
			t.Fatalf("tuple %d: OOV identity tuple not marked first", i)
		}
		if i > 0 && tup.sim > tuples[i-1].sim+1e-9 {
			t.Fatal("materialized stream not descending")
		}
	}
	// Cache completeness: one entry per in-vocabulary tuple (tokens outside
	// the repository vocabulary occur in no set, so verification matrices
	// never look them up).
	if total := len(cache.arena); total != inVocab {
		t.Fatalf("cache has %d edges, stream had %d in-vocabulary tuples", total, inVocab)
	}
	for tid := int32(0); tid < int32(repo.VocabSize()); tid++ {
		for _, ed := range cache.edges(tid) {
			if int(ed.qIdx) >= len(query) {
				t.Fatalf("token %d: edge with out-of-range query index %d", tid, ed.qIdx)
			}
		}
	}
}
