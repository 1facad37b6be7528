package index

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sets"
	"repro/internal/sim"
)

// plainFunc hides the Batcher capability of a similarity function,
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
	funcs := []sim.Func{sim.EditSimilarity{}, sim.JaccardQGrams{Q: 3}, sim.JaccardWords{}}
	for _, fn := range funcs {
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

	// growth: a view loaded before the dictionary grows keeps answering for
	// exactly its own tokens while Sync extends the column behind it (run
	// under -race: the writer appends into the array the old view shares),
	// and a scan started afterwards sees the new tokens.
	t.Run("growth", func(t *testing.T) {
		for _, fn := range funcs {
			dict, err := sets.NewDictionaryFromTokens(vocab[:100])
			if err != nil {
				t.Fatal(err)
			}
			src := NewDynamicFunc(dict, fn)
			src.Sync()
			old := src.col.view.Load()
			if len(old.tokens) != 100 || len(old.sketches) != 100 {
				t.Fatalf("%s: Sync covered %d tokens, %d sketches, want 100", fn.Name(), len(old.tokens), len(old.sketches))
			}
			plain := funcScan{fn: plainFunc{fn}}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, tok := range vocab[100:] {
					dict.Intern(tok)
					src.Sync()
				}
			}()
			for trial := 0; trial < 40; trial++ {
				q := vocab[trial*7%len(vocab)]
				k := sim.NewKernel(fn, q)
				got := kernelScan(k, old.tokens, old.sketches, q, 0.4, nil)
				neighborsEqual(t, fn.Name()+" old view", got, plain.scan(old.tokens, q, 0.4, nil))
			}
			<-done
			if v := src.col.view.Load(); len(v.tokens) != len(vocab) || len(v.sketches) != len(vocab) {
				t.Fatalf("%s: column covers %d tokens, %d sketches after growth, want %d", fn.Name(), len(v.tokens), len(v.sketches), len(vocab))
			}
			for trial := 0; trial < 10; trial++ {
				q := vocab[100+trial*13%200]
				neighborsEqual(t, fn.Name()+" grown", src.Neighbors(q, 0.4), NewFuncIndex(vocab, plainFunc{fn}).Neighbors(q, 0.4))
			}
		}
	})
}

// editDistanceDP is a two-row byte DP edit distance, kept here so the
// sketch fuzzer's reference shares nothing with package sim.
func editDistanceDP(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			best := prev[j-1]
			if a[i-1] != b[j-1] {
				best++
			}
			cur[j] = min(best, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// FuzzEditSketch checks the edit sketch and its admission on arbitrary byte
// strings and thresholds: the signature distance never exceeds twice the
// edit distance, a refused candidate is below α (and a candidate is never
// refused at its own similarity), and the kernel scan over a vocabulary cut
// from the two strings returns the plain per-pair scan's neighbours.
func FuzzEditSketch(f *testing.F) {
	long := strings.Repeat("lorem ipsum ", 25)
	for _, alpha := range []float64{0, -1, math.NaN(), 1, 1.5, 0.8, 0.5} {
		f.Add("kitten", "sitting", alpha)
		f.Add("", "a", alpha)
		f.Add("éé", "é", alpha)
		f.Add(long, long[:150]+"x"+long[151:], alpha)
		f.Add(long[:255], long[:256], alpha)
	}
	f.Fuzz(func(t *testing.T, a, b string, alpha float64) {
		if len(a) > 600 || len(b) > 600 {
			return
		}
		var fn sim.EditSimilarity
		sa, sb := fn.Sketch(a), fn.Sketch(b)
		lev := editDistanceDP(a, b)
		if pop := bits.OnesCount64((sa ^ sb) >> 8); pop > 2*lev {
			t.Fatalf("signatures of %q and %q differ in %d bits at edit distance %d", a, b, pop, lev)
		}
		k := fn.NewKernel(a)
		s := fn.Sim(a, b)
		for _, al := range []float64{alpha, s, math.Nextafter(s, 2)} {
			if admitted := len(k.Admit([]uint64{sb}, al, nil)) == 1; !admitted && s >= al {
				t.Fatalf("(%q,%q) refused at α=%v with sim %v", a, b, al, s)
			}
		}
		if len(k.Admit([]uint64{sb}, s, nil)) != 1 {
			t.Fatalf("(%q,%q) refused at its own sim %v", a, b, s)
		}

		seen := map[string]bool{}
		var vocab []string
		for _, tok := range []string{a, b, a + b, b + a, a[:len(a)/2], b[len(b)/2:], a[len(a)/2:] + b[:len(b)/2], "", a + "x", "y" + b} {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
		kernel, plain := NewFuncIndex(vocab, fn), NewFuncIndex(vocab, plainFunc{fn})
		for _, q := range []string{a, b, a + "z"} {
			neighborsEqual(t, fmt.Sprintf("q=%q α=%v", q, alpha), kernel.Neighbors(q, alpha), plain.Neighbors(q, alpha))
		}
	})
}
