package segment

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

// TestMetamorphicScores checks three properties of exact top-k answers on
// the four datagen shapes at scale 0.05, over the vector source and the
// edit-similarity source:
//   - raising α never raises the i-th score (within 1e-9), nor the number
//     of results;
//   - top-k is the first k of top-(k+1), names and score bits, which the
//     rule (DESIGN.md §1) fixes among tied sets;
//   - a permuted query returns the same names and score bits.
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
				search := func(m *Manager, q []string, k int) []Result {
					t.Helper()
					res, _, err := m.Search(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				open := func(alpha float64) *Manager {
					m := NewManager(all, src.build(ds), core.Options{K: 5, Alpha: alpha, ExactScores: true}, Config{})
					t.Cleanup(func() { m.Close() })
					return m
				}
				lo, hi := open(src.alphaLo), open(src.alphaHi)
				rng := rand.New(rand.NewSource(int64(len(all))))
				for qi, q := range queries {
					atLo, atHi := scores(search(lo, q, 0)), scores(search(hi, q, 0))
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
						if len(next) < len(prev) || !sameAnswer(prev, next[:len(prev)]) {
							t.Fatalf("query %d: top-%d %v is not the first of top-%d's %v", qi, k-1, prev, k, next)
						}
						prev = next
					}

					perm := append([]string(nil), q...)
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					if got, want := search(lo, perm, 0), search(lo, q, 0); !sameAnswer(got, want) {
						t.Fatalf("query %d: permuted query answered %v, the query %v", qi, got, want)
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

// scores returns the scores of an answer.
func scores(res []Result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.Score
	}
	return out
}

// sameAnswer reports whether two answers name the same sets in the same
// order with the same score bits.
func sameAnswer(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.Name == y.Name && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}
