package segment

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

// TestMetamorphicScores checks three properties of exact top-k answers that
// need no rule for which of several tied sets fills a slot, so they compare
// score sequences (within 1e-9), never set IDs. On the four datagen shapes
// at scale 0.05, over the vector source and the edit-similarity source:
//   - raising α never raises the i-th score, nor the number of results;
//   - top-k's scores are the first k of top-(k+1)'s;
//   - a permuted query returns the same scores.
func TestMetamorphicScores(t *testing.T) {
	type source struct {
		name       string
		build      func(ds *datagen.Dataset) SourceBuilder
		alphaLo    float64
		alphaHi    float64
		loweredAny bool
	}
	sources := []*source{
		{name: "vector", alphaLo: 0.7, alphaHi: 0.8, build: func(ds *datagen.Dataset) SourceBuilder {
			return dynamicBuilder(ds.Model.Vector)
		}},
		{name: "edit", alphaLo: 0.6, alphaHi: 0.8, build: func(*datagen.Dataset) SourceBuilder {
			return func(dict *sets.Dictionary) index.NeighborSource {
				return index.NewDynamicFunc(dict, sim.EditSimilarity{})
			}
		}},
	}
	ctx := context.Background()
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		all := ds.Repo.Sets()
		var queries [][]string
		for i := 0; i < 4; i++ {
			queries = append(queries, all[(2*i+1)*len(all)/8].Elements)
		}
		for _, src := range sources {
			t.Run(string(kind)+"/"+src.name, func(t *testing.T) {
				search := func(m *Manager, q []string, k int) []float64 {
					t.Helper()
					res, _, err := m.Search(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					scores := make([]float64, len(res))
					for i, r := range res {
						scores[i] = r.Score
					}
					return scores
				}
				open := func(alpha float64) *Manager {
					m := NewManager(all, src.build(ds), core.Options{K: 5, Alpha: alpha, ExactScores: true}, Config{})
					t.Cleanup(func() { m.Close() })
					return m
				}
				lo, hi := open(src.alphaLo), open(src.alphaHi)
				rng := rand.New(rand.NewSource(int64(len(all))))
				for qi, q := range queries {
					atLo, atHi := search(lo, q, 0), search(hi, q, 0)
					if len(atHi) > len(atLo) {
						t.Fatalf("query %d: %d results at α %v, %d at %v", qi, len(atHi), src.alphaHi, len(atLo), src.alphaLo)
					}
					for i, s := range atHi {
						if s > atLo[i]+1e-9 {
							t.Fatalf("query %d rank %d: %v at α %v above %v at %v", qi, i, s, src.alphaHi, atLo[i], src.alphaLo)
						}
						src.loweredAny = src.loweredAny || s < atLo[i]-1e-9
					}

					prev := search(lo, q, 1)
					for k := 2; k <= 6; k++ {
						next := search(lo, q, k)
						if len(next) < len(prev) || !sameScores(prev, next[:len(prev)]) {
							t.Fatalf("query %d: top-%d scores %v are not the first of top-%d's %v", qi, k-1, prev, k, next)
						}
						prev = next
					}

					perm := append([]string(nil), q...)
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					if got := search(lo, perm, 0); !sameScores(got, atLo) {
						t.Fatalf("query %d: permuted query scored %v, the query %v", qi, got, atLo)
					}
				}
			})
		}
	}
	for _, src := range sources {
		if !src.loweredAny {
			t.Errorf("%s: raising α lowered no score on any shape: the α property compared nothing", src.name)
		}
	}
}

// sameScores reports whether two score sequences agree within 1e-9.
func sameScores(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
