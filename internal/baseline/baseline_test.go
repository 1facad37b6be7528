package baseline

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/index"
	"repro/internal/sets"
)

const tol = 1e-6

func instance(seed int64) (*sets.Repository, *embedding.Model, []string) {
	rng := rand.New(rand.NewSource(seed))
	model := embedding.NewModel(embedding.Config{Clusters: 25, Seed: seed * 13})
	vocab := model.Tokens()
	raw := make([]sets.Set, 40+rng.Intn(40))
	for i := range raw {
		card := 2 + rng.Intn(10)
		seen := map[string]bool{}
		var elems []string
		for len(elems) < card {
			tok := vocab[rng.Intn(len(vocab))]
			if !seen[tok] {
				seen[tok] = true
				elems = append(elems, tok)
			}
		}
		raw[i] = sets.Set{Elements: elems}
	}
	var query []string
	seen := map[string]bool{}
	for len(query) < 5 {
		tok := vocab[rng.Intn(len(vocab))]
		if !seen[tok] {
			seen[tok] = true
			query = append(query, tok)
		}
	}
	return sets.NewRepository(raw), model, query
}

// TestBaselineMatchesKoios cross-validates the two independent
// implementations: identical top-k score sequences on random instances,
// with and without the iUB filter.
func TestBaselineMatchesKoios(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		repo, model, query := instance(seed)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		inv := index.NewInverted(repo)
		k, alpha := 5, 0.7

		koios, _ := core.NewEngine(repo, src, core.Options{K: k, Alpha: alpha, ExactScores: true}).Search(query)
		for _, useIUB := range []bool{false, true} {
			base, stats, timedOut := Search(repo, inv, src, query, Options{K: k, Alpha: alpha, UseIUB: useIUB, Workers: 2})
			if timedOut {
				t.Fatal("unexpected timeout")
			}
			if len(base) != len(koios) {
				t.Fatalf("seed %d iub=%v: baseline %d results, koios %d", seed, useIUB, len(base), len(koios))
			}
			for i := range base {
				if math.Abs(base[i].Score-koios[i].Score) > tol {
					t.Fatalf("seed %d iub=%v rank %d: baseline %v, koios %v", seed, useIUB, i, base[i].Score, koios[i].Score)
				}
			}
			if stats.Candidates == 0 && len(base) > 0 {
				t.Fatal("results without candidates")
			}
			if useIUB && stats.IUBPruned+stats.EMs > stats.Candidates {
				t.Fatalf("pruned %d + EM %d exceeds candidates %d", stats.IUBPruned, stats.EMs, stats.Candidates)
			}
		}
	}
}

// listSource answers Neighbors from lists built beforehand, so a probe
// allocates nothing.
type listSource map[string][]index.Neighbor

func (s listSource) Neighbors(q string, _ float64) []index.Neighbor { return s[q] }

// TestBaselinesReleaseStreams: every baseline that opens a stream hands it
// back to the pool — Search also when it returns on its timeout — so a
// stream opened right after a warm call reuses its buffers and allocates
// nothing. The source answers from prebuilt lists, so the stream's own
// buffers are all NewStream could allocate. A stream is measured again, up
// to 40 times, while it allocates: sync.Pool may drop an item at any GC.
func TestBaselinesReleaseStreams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const alpha = 0.7
	repo, model, query := instance(11)
	fn := index.NewFuncIndex(repo.Vocabulary(), model)
	src := listSource{}
	for _, tok := range append(repo.Vocabulary(), query...) {
		src[tok] = fn.Neighbors(tok, alpha)
	}
	inv := index.NewInverted(repo)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Search", func() { Search(repo, inv, src, query, Options{K: 3, Alpha: alpha, UseIUB: true}) }},
		{"Search/timeout", func() { Search(repo, inv, src, query, Options{K: 3, Alpha: alpha, Timeout: time.Nanosecond}) }},
		{"GreedyTopK", func() { GreedyTopK(repo, inv, src, query, 3, alpha) }},
	} {
		var mallocs uint64
		for try := 0; try < 40 && (try == 0 || mallocs > 0); try++ {
			c.call()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := index.NewStream(query, src, alpha)
			runtime.ReadMemStats(&after)
			st.Release()
			mallocs = after.Mallocs - before.Mallocs
		}
		if mallocs > 0 {
			t.Errorf("%s: a stream opened after it allocates %d times; the call kept its stream", c.name, mallocs)
		}
	}
}

func TestBaselinePlusPrunesWork(t *testing.T) {
	repo, model, query := instance(42)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	inv := index.NewInverted(repo)
	_, plain, _ := Search(repo, inv, src, query, Options{K: 3, Alpha: 0.7})
	_, plus, _ := Search(repo, inv, src, query, Options{K: 3, Alpha: 0.7, UseIUB: true})
	if plain.IUBPruned != 0 {
		t.Fatalf("plain baseline pruned %d sets", plain.IUBPruned)
	}
	if plus.EMs > plain.EMs {
		t.Fatalf("Baseline+ did more EMs (%d) than Baseline (%d)", plus.EMs, plain.EMs)
	}
}

func TestBaselineTimeout(t *testing.T) {
	repo, model, query := instance(7)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	inv := index.NewInverted(repo)
	results, _, timedOut := Search(repo, inv, src, query, Options{K: 3, Alpha: 0.7, Timeout: time.Nanosecond})
	if !timedOut {
		t.Skip("machine too fast to observe nanosecond timeout") // extremely unlikely
	}
	if results != nil {
		t.Fatal("timed-out search returned results")
	}
}

func TestBaselineEmptyQuery(t *testing.T) {
	repo, model, _ := instance(9)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	inv := index.NewInverted(repo)
	results, _, _ := Search(repo, inv, src, nil, Options{})
	if len(results) != 0 {
		t.Fatal("empty query returned results")
	}
	_ = model
}

func TestVanillaTopK(t *testing.T) {
	repo := sets.NewRepository([]sets.Set{
		{Elements: []string{"a", "b", "c"}},
		{Elements: []string{"a", "b"}},
		{Elements: []string{"x", "y"}},
		{Elements: []string{"a"}},
	})
	inv := index.NewInverted(repo)
	got := VanillaTopK(repo, inv, []string{"a", "b", "c"}, 2)
	if len(got) != 2 || got[0].SetID != 0 || got[0].Score != 3 || got[1].SetID != 1 || got[1].Score != 2 {
		t.Fatalf("VanillaTopK = %+v", got)
	}
	// Duplicate query tokens must not double count.
	got = VanillaTopK(repo, inv, []string{"a", "a"}, 1)
	if got[0].Score != 1 {
		t.Fatalf("duplicate query inflated overlap: %+v", got)
	}
	if got := VanillaTopK(repo, inv, []string{"zzz"}, 3); len(got) != 0 {
		t.Fatalf("unknown token matched: %+v", got)
	}
}

// TestGreedyTopKPaperExample: greedy ranks C1 over C2 on the Figure 1
// instance — the motivating failure of non-exact matching.
func TestGreedyTopKPaperExample(t *testing.T) {
	q := []string{"LA", "Seattle", "Columbia", "Blaine", "BigApple", "Charleston"}
	repo := sets.NewRepository([]sets.Set{
		{Name: "C1", Elements: []string{"LA", "Blain", "Appleton", "MtPleasant", "Lexington", "WestCoast"}},
		{Name: "C2", Elements: []string{"LA", "Sacramento", "Southern", "Blain", "SC", "Minnesota", "NewYorkCity"}},
	})
	ps := map[[2]string]float64{}
	set := func(a, b string, s float64) { ps[[2]string{a, b}] = s; ps[[2]string{b, a}] = s }
	set("Blaine", "Blain", 0.99)
	set("Seattle", "WestCoast", 0.70)
	set("Columbia", "Lexington", 0.70)
	set("Charleston", "MtPleasant", 0.70)
	set("BigApple", "NewYorkCity", 0.90)
	set("Columbia", "Southern", 0.85)
	set("Columbia", "SC", 0.80)
	set("Charleston", "Southern", 0.80)
	fn := pairFn{ps}
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	inv := index.NewInverted(repo)

	greedy := GreedyTopK(repo, inv, src, q, 2, 0.7)
	if greedy[0].SetID != 0 {
		t.Fatalf("greedy top-1 = set %d, want C1 (0)", greedy[0].SetID)
	}
	if math.Abs(greedy[0].Score-4.09) > tol || math.Abs(greedy[1].Score-3.74) > tol {
		t.Fatalf("greedy scores = %v / %v, want 4.09 / 3.74", greedy[0].Score, greedy[1].Score)
	}
	// Exact scoring flips the ranking.
	if so := ExactSO(repo, 1, q, src, 0.7); math.Abs(so-4.49) > tol {
		t.Fatalf("ExactSO(C2) = %v, want 4.49", so)
	}
}

type pairFn struct{ m map[[2]string]float64 }

func (p pairFn) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return p.m[[2]string{a, b}]
}
func (p pairFn) Name() string { return "pair" }
