package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sets"
	"repro/internal/sim"
)

// arenaFixture is a vocabulary with one vector per token and the reference
// the arena must reproduce: sim.Dot over normalizeCopy vectors.
type arenaFixture struct {
	tokens []string
	vecs   map[string][]float32
	ref    [][]float32
}

// newArenaFixture draws n random vectors of the given dimension, then makes
// one of them all zeros and one a component too long. Neither is the first
// vector, so the stride is dim.
func newArenaFixture(rng *rand.Rand, n, dim int) *arenaFixture {
	f := &arenaFixture{vecs: make(map[string][]float32)}
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		switch i {
		case 2:
			clear(v)
		case 5:
			v = append(v, 0.5)
		}
		tok := fmt.Sprintf("tok%03d", i)
		f.tokens = append(f.tokens, tok)
		f.vecs[tok] = v
		f.ref = append(f.ref, normalizeCopy(v))
	}
	return f
}

func (f *arenaFixture) vec(tok string) ([]float32, bool) {
	v, ok := f.vecs[tok]
	return v, ok
}

// want returns the reference neighbors of token qi among the first n tokens.
func (f *arenaFixture) want(qi, n int, alpha float64) []Neighbor {
	var out []Neighbor
	for j := 0; j < n; j++ {
		if j == qi {
			continue
		}
		if s := sim.Dot(f.ref[qi], f.ref[j]); s >= alpha {
			out = append(out, Neighbor{Token: f.tokens[j], Sim: s, ID: int32(j)})
		}
	}
	sortNeighbors(out)
	return out
}

func sameNeighborBits(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Token != w.Token || g.ID != w.ID || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			return fmt.Errorf("rank %d: %+v (bits %x), want %+v (bits %x)",
				i, g, math.Float64bits(g.Sim), w, math.Float64bits(w.Sim))
		}
	}
	return nil
}

// scorer is what Exact and DynamicExact both offer.
type scorer interface {
	NeighborSource
	CompleteScorer
}

// TestVectorArenaBitIdentical: the arena scan (four rows at a time, query
// row widened once) must reproduce sim.Dot over normalizeCopy vectors bit
// for bit, on Exact and DynamicExact alike — the repository benchmark's
// output check compares served scores with an index.NewExact reference for
// equality, and every equivalence test in core compares scores across
// sources the same way.
func TestVectorArenaBitIdentical(t *testing.T) {
	t.Run("growth", testVectorArenaGrowth)
	rng := rand.New(rand.NewSource(91))
	for _, dim := range []int{1, 3, 32, 33} {
		for _, n := range []int{3, 8, 61} {
			f := newArenaFixture(rng, n, dim)
			dict, err := sets.NewDictionaryFromTokens(f.tokens)
			if err != nil {
				t.Fatal(err)
			}
			sources := map[string]scorer{
				"Exact":        NewExact(f.tokens, f.vec),
				"DynamicExact": NewDynamicExact(dict, f.vec),
			}
			// One threshold is a similarity that occurs, so the s == α
			// boundary is exercised: that pair must be retrieved.
			edge := -1.0
			for j := 1; j < n && edge <= 0; j++ {
				edge = sim.Dot(f.ref[0], f.ref[j])
			}
			for name, src := range sources {
				label := fmt.Sprintf("%s dim=%d n=%d", name, dim, n)
				for _, alpha := range []float64{0, 0.3, 0.8, edge} {
					for qi, q := range f.tokens {
						if err := sameNeighborBits(src.Neighbors(q, alpha), f.want(qi, n, alpha)); err != nil {
							t.Fatalf("%s q=%s α=%v: %v", label, q, alpha, err)
						}
					}
				}
				if edge > 0 {
					found := false
					for _, nb := range src.Neighbors(f.tokens[0], edge) {
						found = found || nb.Sim == edge
					}
					if !found {
						t.Fatalf("%s: the pair with s == α = %v was not retrieved", label, edge)
					}
				}
				for a := range f.tokens {
					for b := range f.tokens {
						if a == b && len(f.ref[a]) != dim {
							continue // an off-stride vector scores 0 even against itself
						}
						got, want := src.PairSim(f.tokens[a], f.tokens[b]), sim.Dot(f.ref[a], f.ref[b])
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: PairSim(%d,%d) = %v, want %v", label, a, b, got, want)
						}
					}
				}
				if got := src.PairSim(f.tokens[0], "never-indexed"); got != 0 {
					t.Fatalf("%s: PairSim with an unindexed token = %v, want 0", label, got)
				}
			}
		}
	}
}

// testVectorArenaGrowth: a scan that loaded a view keeps reading exactly
// that view while Sync appends rows (and reallocates the arena) behind it.
// The second half does the same from concurrent goroutines, for -race.
func testVectorArenaGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n0, n1, dim = 40, 400, 16
	f := newArenaFixture(rng, n1, dim)
	dict, err := sets.NewDictionaryFromTokens(f.tokens[:n0])
	if err != nil {
		t.Fatal(err)
	}
	e := NewDynamicExact(dict, f.vec)
	old := e.current()
	if len(old.tokens) != n0 {
		t.Fatalf("first view covers %d tokens, want %d", len(old.tokens), n0)
	}
	for _, tok := range f.tokens[n0 : n0+100] {
		dict.Intern(tok)
	}
	e.Sync()
	if e.Len() != n0+100 {
		t.Fatalf("Len after growth = %d, want %d", e.Len(), n0+100)
	}
	for qi := 0; qi < n0; qi++ {
		got := old.scan(qi, 0.2, nil)
		sortNeighbors(got)
		if err := sameNeighborBits(got, f.want(qi, n0, 0.2)); err != nil {
			t.Fatalf("old view, q=%d after growth: %v", qi, err)
		}
		if err := sameNeighborBits(e.Neighbors(f.tokens[qi], 0.2), f.want(qi, n0+100, 0.2)); err != nil {
			t.Fatalf("new view, q=%d: %v", qi, err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tok := range f.tokens[n0+100:] {
			dict.Intern(tok)
			e.Sync()
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				qi := (g*13 + round) % n0
				// Whatever view the scan ran on, its neighbors among the
				// first n0+100 tokens are the reference's.
				var got []Neighbor
				for _, nb := range e.Neighbors(f.tokens[qi], 0.2) {
					if nb.ID < n0+100 {
						got = append(got, nb)
					}
				}
				if err := sameNeighborBits(got, f.want(qi, n0+100, 0.2)); err != nil {
					t.Errorf("concurrent scan q=%d: %v", qi, err)
					return
				}
				if got, want := e.PairSim(f.tokens[qi], f.tokens[1]), sim.Dot(f.ref[qi], f.ref[1]); got != want {
					t.Errorf("concurrent PairSim(%d,1) = %v, want %v", qi, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Len() != n1 {
		t.Fatalf("Len after all growth = %d, want %d", e.Len(), n1)
	}
}
