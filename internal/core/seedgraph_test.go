package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
)

// TestSeedGraphReuse: what the θlb seed solves and keeps is what a fresh
// start gives. Each of the seed's solves reaches the verify hook without a
// bound, one per kept score, in the seed's order, on the α-graph a fresh
// gather (appendGraph) builds from the same edge cache, bit for bit: the
// same rows, columns and edge list. Every kept score is a fresh unbounded
// SparseSolver solve of that graph, Score bits and Iterations. Under
// ExactScores every seed set is solved; without it, a seed set whose greedy
// weight (seedGreedy) meets its stream-wide bound is not. Post-processing
// never verifies a solved seed set again, and an answer that holds one
// reports the kept score, verified. The group has three segments over one
// repository, the two newer ones with tombstones; every search runs with
// and without ExactScores under one and four verification workers, at
// k = 1, k = 10 and k above the number of sets, where there is no seed.
func TestSeedGraphReuse(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.05)
	repo := ds.Repo
	src := index.NewExact(repo.Vocabulary(), ds.Model.Vector)
	n := repo.Len()
	var queries [][]string
	for sid := 0; sid < n && len(queries) < 8; sid += 7 {
		if elems := repo.Elements(sid); len(elems) >= 20 {
			queries = append(queries, elems)
		}
	}

	type seen struct {
		rows, cols int
		edges      []matching.Edge
		res        matching.Result
	}
	same := func(a, b []matching.Edge) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Q != b[i].Q || a[i].C != b[i].C || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
				return false
			}
		}
		return true
	}
	unsolved := 0
	for _, k := range []int{1, 10, 3*n + 1} {
		for _, exact := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("k=%d exact=%v workers=%d", k, exact, workers)
				g := &Group{Opts: Options{K: k, Alpha: 0.8, ExactScores: exact, Workers: workers}.withDefaults()}
				base := []int{0}
				for si := 0; si < 3; si++ {
					g.Engines = append(g.Engines, NewEngine(repo, src, Options{K: k, Alpha: 0.8}))
					var dead []uint64
					if si > 0 {
						dead = make([]uint64, (n+63)/64)
						for sid := si; sid < n; sid += 2 + si {
							dead[sid>>6] |= 1 << (uint(sid) & 63)
						}
					}
					g.Dead = append(g.Dead, dead)
					base = append(base, base[si]+n)
				}
				lead := g.lead()
				kept, verified := 0, 0
				for qi, q := range queries {
					sc := lead.getScratch()
					var mu sync.Mutex
					var seedSolves []seen
					hook := func(rows, cols int, edges []matching.Edge, bound func() float64, res matching.Result) {
						mu.Lock()
						defer mu.Unlock()
						if bound != nil { // post-processing's
							verified++
							return
						}
						res.Match = nil
						seedSolves = append(seedSolves, seen{rows, cols, append([]matching.Edge(nil), edges...), res})
					}
					for _, e := range g.Engines {
						e.verifyHook = hook
					}
					results, st, err := g.search(context.Background(), q, lead, sc)
					if err != nil {
						t.Fatal(err)
					}
					qN := len(sc.query)
					if k > 3*n && (len(sc.seeds) >= k || len(sc.seedScores) != 0 || len(seedSolves) != 0) {
						t.Fatalf("%s query %d: %d seed sets, %d kept scores, %d seed solves without a seed", label, qi, len(sc.seeds), len(sc.seedScores), len(seedSolves))
					}
					byGid := make(map[int]seedScore)
					for _, ss := range sc.seedScores {
						byGid[ss.gid] = ss
					}
					// The seed's solves, in its order, are the solved seed sets'
					// fresh graphs, and their scores are fresh solves.
					solved, seeds := 0, sc.seeds
					if len(seeds) < k {
						seeds = nil // no seed
					}
					for _, s := range seeds {
						ss, ok := byGid[s.gid]
						if !ok {
							if exact {
								t.Fatalf("%s query %d: seed set %d not solved under ExactScores", label, qi, s.gid)
							}
							unsolved++
							continue
						}
						if solved >= len(seedSolves) {
							t.Fatalf("%s query %d: %d seed solves reached the hook, more sets kept a score", label, qi, len(seedSolves))
						}
						v := seedSolves[solved]
						solved++
						e, _, local := g.locate(s.gid, base)
						want, cols := appendGraph(nil, &sc.cache, e.repo.Set(local).ElemIDs)
						if v.rows != qN || v.cols != cols || !same(v.edges, want) {
							t.Fatalf("%s query %d: set %d solved at the seed as %d×%d (%d edges), fresh gather %d×%d (%d edges)",
								label, qi, s.gid, v.rows, v.cols, len(v.edges), qN, cols, len(want))
						}
						var solver matching.SparseSolver
						res := solver.Solve(qN, cols, want, nil)
						if math.Float64bits(ss.score) != math.Float64bits(res.Score) || ss.iters != res.Iterations {
							t.Fatalf("%s query %d: set %d kept score %v in %d iterations, a fresh solve %v in %d",
								label, qi, s.gid, ss.score, ss.iters, res.Score, res.Iterations)
						}
					}
					if solved != len(sc.seedScores) || solved != len(seedSolves) || solved != st.SeedEM {
						t.Fatalf("%s query %d: %d kept scores, %d of the seed's sets solved, %d seed solves seen, SeedEM %d",
							label, qi, len(sc.seedScores), solved, len(seedSolves), st.SeedEM)
					}
					kept += solved
					// An answer keeps a solved seed set's score.
					for _, r := range results {
						if ss, ok := byGid[r.SetID]; ok && (!r.Verified || math.Float64bits(r.Score) != math.Float64bits(ss.score)) {
							t.Fatalf("%s query %d: set %d answered %v (verified %v), the seed kept %v", label, qi, r.SetID, r.Score, r.Verified, ss.score)
						}
					}
					lead.putScratch(sc)
				}
				if exact && k <= 3*n && kept == 0 || exact && k > 3*n && verified == 0 {
					t.Fatalf("%s: %d verifications in post-processing, %d kept scores", label, verified, kept)
				}
				t.Logf("%s: %d verifications in post-processing, %d kept scores", label, verified, kept)
			}
		}
	}
	if unsolved == 0 {
		t.Fatal("without ExactScores every seed set was solved: the greedy weight never met a bound")
	}
}

// TestSeedSetsSkipTheWalk: a set the θlb seed solved is taken out of the
// walk (partRefiner.markSeeds, DESIGN.md §2). On the four datagen shapes,
// with and without ExactScores, as generated and with every fourth set
// tombstoned, over one partition and three: the walk's bound filter keeps
// no posting of such a set and settles none (a wrapper around
// partitionPostings sees every call); after the drain its status byte is
// setPruned alone — the walk never admitted it, so it got no candState and
// was never offered to the Llb — and its bound seededBound; it counts as
// one candidate, in its own partition's stats, whose Candidates are the
// live sets of the partition the stream reaches; and the drain hands it to
// post-processing exactly once, with its kept score as all four bounds, if
// that score reaches the final θlb − pruneEps, and otherwise counts it as an
// iUB prune. Every search's funnel adds up: NoEM + EMEarly + EMFull =
// Candidates − IUBPruned. It fails unless some seed sets were handed over
// and some pruned at the drain.
func TestSeedSetsSkipTheWalk(t *testing.T) {
	var walkedSeed, settledSeed atomic.Int64
	dispatched := partitionPostings
	defer func() { partitionPostings = dispatched }()
	partitionPostings = func(sids, poss []int32, bound []float64, below float64, ks, kp, fs []int32) (int, int) {
		n, f := dispatched(sids, poss, bound, below, ks, kp, fs)
		for _, sid := range ks[:n] {
			if bound[sid] == seededBound {
				walkedSeed.Add(1)
			}
		}
		for _, sid := range fs[:f] {
			if bound[sid] == seededBound {
				settledSeed.Add(1)
			}
		}
		return n, f
	}
	handed, pruned := 0, 0
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
		queries := datagen.NewBenchmark(ds, 17).Queries
		queries = queries[:min(10, len(queries))]
		for _, exact := range []bool{false, true} {
			for _, parts := range []int{1, 3} {
				for _, every := range []int{0, 4} {
					label := fmt.Sprintf("%s exact=%v partitions=%d tombstones=%d", kind, exact, parts, every)
					eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, Partitions: parts, ExactScores: exact})
					g := eng.group()
					if every > 0 {
						g = tombstoned(eng, every)
					}
					var dead []uint64
					if len(g.Dead) > 0 {
						dead = g.Dead[0]
					}
					for qi, q := range queries {
						query := sets.Dedup(q.Elements)
						// The live sets of each partition the stream reaches.
						reached := make([]map[int32]bool, parts)
						tuples, _ := eng.materializeStream(query, ds.Repo.TokenIDs(query), eng.getScratch())
						for p := range reached {
							reached[p] = map[int32]bool{}
							for _, tup := range tuples {
								if tup.tokenID < 0 || g.LiveTokens != nil && g.LiveTokens[tup.tokenID>>6]&(1<<(uint(tup.tokenID)&63)) == 0 {
									continue
								}
								sids, _ := eng.parts[p].inv.Postings(tup.tokenID)
								for _, sid := range sids {
									if dead == nil || dead[sid>>6]&(1<<(uint(sid)&63)) == 0 {
										reached[p][sid] = true
									}
								}
							}
						}
						var seeds []seedScore
						eng.survivorHook = func(_ []survivor, _ []float64, kept []seedScore) { seeds = slices.Clone(kept) }
						type refined struct {
							candidates int
							handed     map[int]survivor
							seeds      []seedScore
							flags      []uint8
							bound      []float64
							below      float64
						}
						per := make([]refined, parts)
						eng.refinerHook = func(p int, r *partRefiner) {
							out := map[int]survivor{}
							for _, sv := range r.rs.surv {
								if _, twice := out[sv.setID]; twice {
									t.Errorf("%s query %d: set %d handed over twice", label, qi, sv.setID)
								}
								out[sv.setID] = sv
							}
							per[p] = refined{r.stats.Candidates, out, r.seeds, slices.Clone(r.flags), slices.Clone(r.bound), r.theta.Load() - pruneEps}
						}
						_, st, err := g.SearchContext(context.Background(), query)
						if err != nil {
							t.Fatal(err)
						}
						if st.NoEM+st.EMEarly+st.EMFull != st.Candidates-st.IUBPruned {
							t.Fatalf("%s query %d: funnel %+v does not add up", label, qi, st)
						}
						marked := 0
						for p, pr := range per {
							lo, hi := int(eng.parts[p].lo), int(eng.parts[p].hi)
							if pr.candidates != len(reached[p]) {
								t.Fatalf("%s query %d partition %d: %d candidates, the stream reaches %d live sets", label, qi, p, pr.candidates, len(reached[p]))
							}
							for _, s := range pr.seeds {
								marked++
								if s.gid < lo || s.gid >= hi || !reached[p][int32(s.gid)] {
									t.Fatalf("%s query %d partition %d [%d, %d): seed set %d marked", label, qi, p, lo, hi, s.gid)
								}
								if f, b := pr.flags[s.gid], pr.bound[s.gid]; f != setPruned || b != seededBound {
									t.Fatalf("%s query %d: seed set %d left the walk with status %#x, bound %v", label, qi, s.gid, f, b)
								}
								sv, ok := pr.handed[s.gid]
								switch {
								case ok != (s.score >= pr.below):
									t.Fatalf("%s query %d: seed set %d at %v under θlb − pruneEps %v: handed over %v", label, qi, s.gid, s.score, pr.below, ok)
								case ok && (math.Float64bits(sv.lb) != math.Float64bits(s.score) || sv.ub != sv.lb || sv.lo != sv.lb || sv.hi != sv.lb):
									t.Fatalf("%s query %d: seed set %d handed over as %+v, kept score %v", label, qi, s.gid, sv, s.score)
								case ok:
									handed++
								default:
									pruned++
								}
							}
						}
						if marked != len(seeds) {
							t.Fatalf("%s query %d: %d seed sets marked, the seed kept %d scores", label, qi, marked, len(seeds))
						}
					}
				}
			}
		}
	}
	if n, f := walkedSeed.Load(), settledSeed.Load(); n != 0 || f != 0 {
		t.Fatalf("the walk kept %d postings of seed sets and settled %d of them", n, f)
	}
	if handed == 0 || pruned == 0 {
		t.Fatalf("%d seed sets handed over, %d pruned at the drain: a branch went unexercised", handed, pruned)
	}
	t.Logf("seed sets: %d handed over at their kept scores, %d pruned at the drain", handed, pruned)
}
