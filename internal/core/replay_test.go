package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

// quantSim rounds a similarity down to a multiple of 0.05, so that equal
// similarities — between two tokens of a candidate, between two query
// elements, and between a tail edge and the cut point — are common and the
// replay's tie-breaks decide bounds.
type quantSim struct{ fn sim.Func }

func (q quantSim) Sim(a, b string) float64 { return math.Floor(q.fn.Sim(a, b)*20) / 20 }
func (q quantSim) Name() string            { return "quantised " + q.fn.Name() }

// refineOutcome is one search as post-processing saw and left it.
type refineOutcome struct {
	results   string
	survivors []survivor
	stats     Stats
	ties      int
}

func searchOutcome(t testing.TB, repo *sets.Repository, src index.NeighborSource, opts Options, dead []uint64, query []string) refineOutcome {
	t.Helper()
	var out refineOutcome
	eng := NewEngine(repo, src, opts)
	eng.survivorHook = func(svs []survivor, ties int, _ []float64) {
		out.survivors, out.ties = append([]survivor(nil), svs...), ties
	}
	g := eng.group()
	g.Dead = [][]uint64{dead}
	res, st, err := g.SearchContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	out.results, out.stats = fmt.Sprint(res), st
	return out
}

// finalSurvivors returns the survivors whose upper bound reaches the final
// refinement θlb, the k-th largest lower bound among them. A one-partition
// search hands over exactly those. A partition of several drains under
// whatever θlb the others have reached by then, so it may hand over more;
// they are pruned on first sight by post-processing and which of them
// appear is a matter of timing.
func finalSurvivors(svs []survivor, k int) []survivor {
	lbs := make([]float64, len(svs))
	for i, sv := range svs {
		lbs[i] = sv.lb
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(lbs)))
	if len(lbs) < k {
		return svs
	}
	var out []survivor
	for _, sv := range svs {
		if sv.ub >= lbs[k-1]-pruneEps {
			out = append(out, sv)
		}
	}
	return out
}

// checkCutReplay runs query through the cut pipeline and the eager one and
// requires the same results, the same post-processing counters and — bit
// for bit, in the same order — the same survivors with the same bounds:
// what replayPool and filterPool reconstruct is what the eager refiner's
// drain hands over. IUBPruned may differ (the cut certifies some candidates
// pruned without having seen them pruned). Over several partitions the
// survivors compared are finalSurvivors, and NoEM, which counts the others
// too, is left out. It returns whether the stream was cut and how many
// replay comparisons read token strings.
func checkCutReplay(t testing.TB, label string, repo *sets.Repository, src index.NeighborSource, opts Options, dead []uint64, query []string) (cut bool, ties int) {
	t.Helper()
	eager := opts
	eager.DisableLazy = true
	got, want := searchOutcome(t, repo, src, opts, dead, query), searchOutcome(t, repo, src, eager, dead, query)
	if got.results != want.results {
		t.Fatalf("%s: results diverge\ncut:   %s\neager: %s", label, got.results, want.results)
	}
	gs, ws := got.stats, want.stats
	if opts.Partitions > 1 {
		got.survivors, want.survivors = finalSurvivors(got.survivors, opts.K), finalSurvivors(want.survivors, opts.K)
		gs.NoEM, ws.NoEM = 0, 0
	}
	if gs.NoEM != ws.NoEM || gs.EMFull != ws.EMFull || gs.EMEarly != ws.EMEarly || gs.VerifyCalls != ws.VerifyCalls ||
		gs.HungarianSkipped != ws.HungarianSkipped || gs.HungarianIterations != ws.HungarianIterations {
		t.Fatalf("%s: post-processing counters diverge\ncut:   %+v\neager: %+v", label, gs, ws)
	}
	if len(got.survivors) != len(want.survivors) {
		t.Fatalf("%s: %d survivors, eager has %d\ncut:   %v\neager: %v", label, len(got.survivors), len(want.survivors), got.survivors, want.survivors)
	}
	for i, w := range want.survivors {
		g := got.survivors[i]
		if g.setID != w.setID || math.Float64bits(g.lb) != math.Float64bits(w.lb) || math.Float64bits(g.ub) != math.Float64bits(w.ub) {
			t.Fatalf("%s: survivor %d is set %d [%v (%x), %v (%x)], eager has set %d [%v (%x), %v (%x)]", label, i,
				g.setID, g.lb, math.Float64bits(g.lb), g.ub, math.Float64bits(g.ub),
				w.setID, w.lb, math.Float64bits(w.lb), w.ub, math.Float64bits(w.ub))
		}
	}
	return gs.StreamCut, got.ties
}

// TestTailReplayMatchesEagerBounds: on instances where ties are everywhere,
// cut at every kind of stream prefix, over one and three partitions, with
// and without tombstones, every survivor's bounds equal the eager
// refiner's by their bits — and the instances do cut, and do reach the
// replay's string tie-break.
func TestTailReplayMatchesEagerBounds(t *testing.T) {
	cuts, ties := 0, 0
	check := func(label string, repo *sets.Repository, src index.NeighborSource, opts Options, rng *rand.Rand, tombstones bool, query []string) {
		var dead []uint64
		if tombstones {
			dead = make([]uint64, (repo.Len()+63)/64)
			for sid := 0; sid < repo.Len(); sid++ {
				if rng.Intn(5) == 0 {
					dead[sid>>6] |= 1 << (uint(sid) & 63)
				}
			}
		}
		label = fmt.Sprintf("%s k=%d α=%.2f block %d parts %d tombstones %v", label, opts.K, opts.Alpha, opts.LazyBlock, opts.Partitions, tombstones)
		cut, n := checkCutReplay(t, label, repo, src, opts, dead, query)
		if cut {
			cuts++
		}
		ties += n
	}
	for seed := int64(900); seed < 960; seed++ {
		repo, model, query := randomInstance(seed)
		rng := rand.New(rand.NewSource(seed * 11))
		check(fmt.Sprint("seed ", seed), repo, index.NewFuncIndex(repo.Vocabulary(), quantSim{model}), Options{
			K:          1 + int(seed%7),
			Alpha:      0.5 + 0.05*float64(seed%6),
			LazyBlock:  1 + rng.Intn(64),
			Partitions: 1 + 2*int(seed%2),
		}, rng, seed%4 >= 2, query)
	}
	// The generated collections cut nearly every search, and their larger
	// sets leave long tails to replay.
	for _, kind := range []datagen.Kind{datagen.OpenData, datagen.Twitter} {
		ds := datagen.GenerateDefault(kind, 0.05)
		src := index.NewFuncIndex(ds.Repo.Vocabulary(), quantSim{ds.Model})
		rng := rand.New(rand.NewSource(97))
		for qi, q := range datagen.NewBenchmark(ds, 17).Queries[:6] {
			for _, block := range []int{1, 2 + rng.Intn(62), 64} {
				for _, parts := range []int{1, 3} {
					for _, tombstones := range []bool{false, true} {
						check(fmt.Sprintf("%s query %d", kind, qi), ds.Repo, src, Options{
							K: 1 + rng.Intn(10), Alpha: 0.6 + 0.05*float64(rng.Intn(5)), LazyBlock: block, Partitions: parts,
						}, rng, tombstones, q.Elements)
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no instance cut the stream: the replay went untested")
	}
	if ties == 0 {
		t.Fatal("no replay comparison read a token string: the tie-break went untested")
	}
	t.Logf("%d cuts, %d string tie-breaks", cuts, ties)
}

// tableSim is a similarity read from a symmetric table over tokens "t0",
// "t1", …: what FuzzCutReplay's bytes decide.
type tableSim struct {
	ids map[string]int
	tab [][]float64
}

func (s tableSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	i, ok := s.ids[a]
	j, ok2 := s.ids[b]
	if !ok || !ok2 {
		return 0
	}
	return s.tab[i][j]
}
func (s tableSim) Name() string { return "table" }

// FuzzCutReplay: bytes → vocabulary size, k, α, LazyBlock, partition count,
// a similarity table in steps of 0.05, tombstones, a query and sets; the cut
// search must equal the eager one on results, survivor bounds and
// post-processing counters (checkCutReplay).
func FuzzCutReplay(f *testing.F) {
	f.Add([]byte{12, 2, 3, 0, 0, 7, 0, 1, 2, 3, 0x80, 1, 2, 4, 0x80, 2, 3, 5, 6, 0x80, 7, 8, 1, 0x80, 3, 9, 10, 0x80, 1, 11, 0x80, 2, 4, 6})
	f.Add([]byte{6, 0, 0, 5, 2, 1, 9, 0, 1, 0x80, 0, 2, 0x80, 1, 3, 0x80, 4, 5, 0, 0x80, 2, 3})
	f.Add([]byte{23, 4, 6, 63, 1, 200, 3, 1, 3, 5, 7, 9, 11, 0x80, 2, 4, 6, 8, 0x80, 1, 2, 3, 0x80, 9, 10, 11, 12, 0x80, 20, 21, 22, 0x80, 5, 6, 7, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		nTok := 4 + int(data[0])%20
		opts := Options{
			K:          1 + int(data[1])%6,
			Alpha:      0.5 + 0.05*float64(data[2]%10),
			LazyBlock:  1 + int(data[3])%64,
			Partitions: 1 + int(data[4])%3,
		}
		rng := rand.New(rand.NewSource(int64(data[5])))
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
		deadRng := rand.New(rand.NewSource(int64(data[6])))
		var raw [][]string
		cur, in := []string(nil), map[byte]bool{}
		for _, b := range data[7:] {
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
		query := raw[0]
		var coll []sets.Set
		for _, elems := range raw[1:] {
			if len(elems) > 0 && len(coll) < 200 {
				coll = append(coll, sets.Set{Elements: elems})
			}
		}
		if len(query) == 0 || len(coll) == 0 {
			return
		}
		repo := sets.NewRepository(coll)
		var dead []uint64
		if data[6] != 0 {
			dead = make([]uint64, (repo.Len()+63)/64)
			for sid := 0; sid < repo.Len(); sid++ {
				if deadRng.Intn(4) == 0 {
					dead[sid>>6] |= 1 << (uint(sid) & 63)
				}
			}
		}
		src := index.NewFuncIndex(repo.Vocabulary(), fn)
		checkCutReplay(t, fmt.Sprintf("%+v", opts), repo, src, opts, dead, query)
	})
}

// BenchmarkCutReplay measures the survivor reconstruction of a cut search in
// the regime that leans on it — the benchmark's search_large workload, every
// opendata set of 100–400 elements as a query — and reports how many tail
// events a replayed candidate keeps. One iteration replays one search's
// pool; refinement, the drain and the edge cache are rebuilt outside the
// timer, because the replay consumes the refiner's matching masks.
func BenchmarkCutReplay(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.1)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8})
	var queries [][]string
	for _, s := range ds.Repo.Sets() {
		if n := len(s.Elements); n >= 100 && n < 400 {
			queries = append(queries, s.Elements)
		}
	}
	g := eng.group()
	base := []int{0, ds.Repo.Len()}
	ctx := context.Background()
	var rs refinerScratch
	events, replayed := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		query := sets.Dedup(queries[i%len(queries)])
		qids := ds.Repo.TokenIDs(query)
		sc := eng.getScratch()
		sc.refine.reset(ds.Repo.Len(), (len(query)+63)/64, eng.cWords())
		share, score := sc.refine.carve(eng)
		theta, stats := &atomicMax{}, Stats{}
		r := eng.newPartRefiner(&eng.opts, len(query), 0, theta, &stats, nil, &share, score, &rs)
		st := index.NewLazyStream(query, qids, src, eng.opts.Alpha, nil)
		cache, _ := eng.peekStream(st, sc, nil)
		r.addBounds(cache.maxima(qids, sc))
		theta.Update(g.seedTheta(cache, sc.refine.bound, len(query), base, sc))
		_, cut, level, at, _ := g.pumpLazy(ctx, st, []chunk{{r: r}}, theta, eng, sc, len(query))
		if !cut {
			b.Fatalf("query %d does not cut the stream", i%len(queries))
		}
		thetaCut := theta.Load()
		rs.kept = 0
		b.StartTimer()
		pool := r.replayPool(cache.edges, qids, level, thetaCut, at)
		b.StopTimer()
		replayed += len(pool)
		events += rs.kept
		eng.scratch.Put(sc)
		b.StartTimer()
	}
	b.ReportMetric(float64(events)/float64(replayed), "events/candidate")
}
