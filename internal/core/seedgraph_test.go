package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
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
