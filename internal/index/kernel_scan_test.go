package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sets"
	"repro/internal/sim"
)

// plainFunc hides the Bounded/Batcher capabilities of a similarity function,
// forcing the scan paths onto the plain per-pair loop — the reference the
// kernel paths must reproduce byte for byte.
type plainFunc struct{ fn sim.Func }

func (p plainFunc) Sim(a, b string) float64 { return p.fn.Sim(a, b) }
func (p plainFunc) Name() string            { return p.fn.Name() }

func kernelTestVocab(rng *rand.Rand, n int) []string {
	letters := []rune("abcdefgh ij")
	vocab := make([]string, 0, n)
	seen := map[string]bool{}
	for len(vocab) < n {
		l := 1 + rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < l; j++ {
			sb.WriteRune(letters[rng.Intn(len(letters))])
		}
		tok := sb.String()
		if !seen[tok] {
			seen[tok] = true
			vocab = append(vocab, tok)
		}
	}
	return vocab
}

func neighborsEqual(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: neighbors diverge\nkernel: %v\nplain:  %v", label, got, want)
	}
}

// TestFuncIndexKernelEquivalence: the kernel scan (with and without admission
// filters) must return exactly the plain scan's neighbors — same tokens, same
// sims, same IDs, same order.
func TestFuncIndexKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	vocab := kernelTestVocab(rng, 400)
	funcs := []sim.Func{
		sim.EditSimilarity{},
		sim.JaccardQGrams{Q: 3},
		sim.JaccardWords{},
		sim.Thresholded{Fn: sim.EditSimilarity{}, Alpha: 0.6},
	}
	for _, fn := range funcs {
		kernelIdx := NewFuncIndex(vocab, fn)
		unfiltered := NewFuncIndex(vocab, fn)
		unfiltered.SetKernelFilters(false)
		plainIdx := NewFuncIndex(vocab, plainFunc{fn})
		for trial := 0; trial < 25; trial++ {
			q := vocab[rng.Intn(len(vocab))]
			if trial%5 == 0 {
				q += "x" // out-of-vocabulary query element
			}
			for _, alpha := range []float64{0.3, 0.6, 0.8} {
				label := fmt.Sprintf("%s q=%q α=%v", fn.Name(), q, alpha)
				want := plainIdx.Neighbors(q, alpha)
				neighborsEqual(t, label, kernelIdx.Neighbors(q, alpha), want)
				neighborsEqual(t, label+" nofilters", unfiltered.Neighbors(q, alpha), want)
			}
		}
	}
}

// TestDynamicFuncKernelEquivalence: the dynamic source's kernel scan, with
// and without admission filters, must match its plain scan.
func TestDynamicFuncKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	vocab := kernelTestVocab(rng, 300)
	dict, err := sets.NewDictionaryFromTokens(vocab)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []sim.Func{sim.EditSimilarity{}, sim.JaccardQGrams{Q: 3}} {
		plain := NewDynamicFunc(dict, plainFunc{fn})
		kernel := NewDynamicFunc(dict, fn)
		unfiltered := NewDynamicFunc(dict, fn)
		unfiltered.SetKernelFilters(false)
		for trial := 0; trial < 20; trial++ {
			q := vocab[rng.Intn(len(vocab))]
			for _, alpha := range []float64{0.3, 0.4, 0.7, 0.85} {
				label := fmt.Sprintf("%s q=%q α=%v", fn.Name(), q, alpha)
				want := plain.Neighbors(q, alpha)
				neighborsEqual(t, label, kernel.Neighbors(q, alpha), want)
				neighborsEqual(t, label+" nofilters", unfiltered.Neighbors(q, alpha), want)
			}
		}
	}
}
