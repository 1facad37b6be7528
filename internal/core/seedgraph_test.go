package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
)

// TestSeedGraphReuse: a verification of a set the θlb seed matched solves
// the α-graph the seed gathered, and that graph is, bit for bit, the one a
// fresh gather (appendGraph) builds from the same edge cache: the same
// rows, columns and edge list. The group has three segments over one
// repository, the two newer ones with tombstones; every search runs under
// one and four verification workers (four share the seed's graphs), at
// k = 1, k = 10 and k above the number of sets, where there is no seed and
// every verification gathers its own graph.
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
		gid, rows, cols int
		edges           []matching.Edge
	}
	for _, k := range []int{1, 10, 3*n + 1} {
		for _, workers := range []int{1, 4} {
			g := &Group{Opts: Options{K: k, Alpha: 0.8, ExactScores: true, Workers: workers}.withDefaults()}
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
			reused, verified := 0, 0
			for qi, q := range queries {
				sc := lead.getScratch()
				var mu sync.Mutex
				var got []seen
				hook := func(rows, cols int, edges []matching.Edge, _ func() float64, _ matching.Result) {
					// Which seed graph, if any, the verifier was handed.
					gid := -1
					for _, sg := range sc.seedGraphs {
						if sg.hi > sg.lo && &edges[0] == &sc.seedEdges[sg.lo] {
							gid = sg.gid
						}
					}
					mu.Lock()
					got = append(got, seen{gid, rows, cols, append([]matching.Edge(nil), edges...)})
					mu.Unlock()
				}
				for _, e := range g.Engines {
					e.verifyHook = hook
				}
				if _, _, err := g.search(context.Background(), q, lead, sc); err != nil {
					t.Fatal(err)
				}
				qN := len(sc.query)
				if k > 3*n && (len(sc.seedGraphs) != 0 || len(sc.seedEdges) != 0) {
					t.Fatalf("k=%d workers=%d query %d: %d seed graphs, %d edges without a seed", k, workers, qi, len(sc.seedGraphs), len(sc.seedEdges))
				}
				// Every graph the seed gathered is the fresh gather of its set.
				fresh := func(gid int) ([]matching.Edge, int) {
					e, _, local := g.locate(gid, base)
					return appendGraph(nil, &sc.cache, e.repo.Set(local).ElemIDs)
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
				for _, sg := range sc.seedGraphs {
					want, cols := fresh(sg.gid)
					if sg.cols != cols || !same(sc.seedEdges[sg.lo:sg.hi], want) {
						t.Fatalf("k=%d workers=%d query %d: seed graph of set %d (%d columns) is not its fresh gather (%d columns)",
							k, workers, qi, sg.gid, sg.cols, cols)
					}
				}
				// And what the verifier received from one is that gather.
				for _, v := range got {
					verified++
					if v.gid < 0 {
						continue
					}
					reused++
					want, cols := fresh(v.gid)
					if v.rows != qN || v.cols != cols || !same(v.edges, want) {
						t.Fatalf("k=%d workers=%d query %d: set %d verified as %d×%d (%d edges), fresh gather %d×%d (%d edges)",
							k, workers, qi, v.gid, v.rows, v.cols, len(v.edges), qN, cols, len(want))
					}
				}
				lead.putScratch(sc)
			}
			if verified == 0 || k <= 3*n && reused == 0 {
				t.Fatalf("k=%d workers=%d: %d verifications, %d on a seed graph", k, workers, verified, reused)
			}
			t.Logf("k=%d workers=%d: %d verifications, %d on a seed graph", k, workers, verified, reused)
		}
	}
}
