package silkmoth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sets"
	"repro/internal/sim"
)

const tol = 1e-6

func instance(seed int64) (*sets.Repository, []string) {
	rng := rand.New(rand.NewSource(seed))
	model := embedding.NewModel(embedding.Config{Clusters: 120, TypoFraction: 0.8, Seed: seed})
	vocab := model.Tokens()
	raw := make([]sets.Set, 50)
	for i := range raw {
		card := 3 + rng.Intn(8)
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
	for len(query) < 6 {
		tok := vocab[rng.Intn(len(vocab))]
		if !seen[tok] {
			seen[tok] = true
			query = append(query, tok)
		}
	}
	return sets.NewRepository(raw), query
}

// TestSilkMothMatchesBruteForce: both variants must return exactly the
// threshold result (top-k capped) of the reference model (internal/model),
// on the 3-gram Jaccard similarity used in the paper's comparison.
func TestSilkMothMatchesBruteForce(t *testing.T) {
	fn := sim.JaccardQGrams{Q: 3}
	for seed := int64(1); seed <= 10; seed++ {
		repo, query := instance(seed)
		src := index.NewFuncIndex(repo.Vocabulary(), fn)
		inv := index.NewInverted(repo)
		const k = 10
		ranked, err := model.NewRanker(repo.Sets(), fn, 0.5).TopK(query, k)
		if err != nil {
			t.Fatalf("model: %v", err)
		}
		for _, theta := range []float64{1.0, 1.5, 2.0, 3.0} {
			want := ranked
			for len(want) > 0 && want[len(want)-1].Score < theta-tol {
				want = want[:len(want)-1]
			}
			for _, variant := range []Variant{Syntactic, Semantic} {
				got, stats := Search(repo, inv, src, query, Options{
					Theta: theta, Alpha: 0.5, K: k, Variant: variant,
				})
				if len(got) != len(want) {
					t.Fatalf("seed %d θ=%v %v: %d results, want %d", seed, theta, variant, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i].Score-want[i].Score) > tol {
						t.Fatalf("seed %d θ=%v %v rank %d: %v, want %v", seed, theta, variant, i, got[i].Score, want[i].Score)
					}
				}
				if stats.Verified > stats.Candidates {
					t.Fatalf("verified %d > candidates %d", stats.Verified, stats.Candidates)
				}
			}
		}
	}
}

func TestSyntacticSignatureShrinks(t *testing.T) {
	fn := sim.JaccardQGrams{Q: 3}
	repo, query := instance(3)
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	inv := index.NewInverted(repo)
	_, syn := Search(repo, inv, src, query, Options{Theta: 3, Alpha: 0.5, K: 5, Variant: Syntactic})
	_, sem := Search(repo, inv, src, query, Options{Theta: 3, Alpha: 0.5, K: 5, Variant: Semantic})
	if syn.SignatureSize >= sem.SignatureSize {
		t.Fatalf("signature %d not smaller than semantic %d at θ=3", syn.SignatureSize, sem.SignatureSize)
	}
	if sem.SignatureSize != len(sets.Dedup(query)) {
		t.Fatalf("semantic variant must probe all %d elements, got %d", len(sets.Dedup(query)), sem.SignatureSize)
	}
	if syn.Candidates > sem.Candidates {
		t.Fatalf("signature produced more candidates (%d) than full probing (%d)", syn.Candidates, sem.Candidates)
	}
}

func TestCheckFilterPrunes(t *testing.T) {
	fn := sim.JaccardQGrams{Q: 3}
	repo, query := instance(5)
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	inv := index.NewInverted(repo)
	_, syn := Search(repo, inv, src, query, Options{Theta: 2.5, Alpha: 0.5, K: 5, Variant: Syntactic})
	if syn.Candidates > 0 && syn.CheckPruned == 0 && syn.Verified == syn.Candidates {
		t.Logf("check filter pruned nothing on this instance (candidates=%d)", syn.Candidates)
	}
	if syn.CheckPruned+syn.Verified > syn.Candidates {
		t.Fatalf("accounting broken: pruned %d + verified %d > candidates %d", syn.CheckPruned, syn.Verified, syn.Candidates)
	}
}

func TestSilkMothEmptyQueryAndZeroK(t *testing.T) {
	fn := sim.JaccardQGrams{Q: 3}
	repo, query := instance(7)
	src := index.NewFuncIndex(repo.Vocabulary(), fn)
	inv := index.NewInverted(repo)
	if got, _ := Search(repo, inv, src, nil, Options{Theta: 1, Alpha: 0.5, K: 5}); len(got) != 0 {
		t.Fatal("empty query returned results")
	}
	if got, _ := Search(repo, inv, src, query, Options{Theta: 1, Alpha: 0.5, K: 0}); len(got) != 0 {
		t.Fatal("k=0 returned results")
	}
}

func TestVariantString(t *testing.T) {
	if Syntactic.String() != "silkmoth-syntactic" || Semantic.String() != "silkmoth-semantic" {
		t.Fatal("variant names wrong")
	}
}
