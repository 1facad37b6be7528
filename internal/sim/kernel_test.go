package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// levenshteinDP is the two-row byte DP the bit-parallel kernel replaced,
// kept as the reference oracle for the equivalence properties below.
func levenshteinDP(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// randomUnicode draws strings mixing ASCII, multi-byte runes, and combining
// marks, with lengths crossing the 64-byte single-word/block boundary.
func randomUnicode(rng *rand.Rand, maxRunes int) string {
	runes := []rune("abcdexyz 0123456789éüßλδπ漢字́̈é\U0001F600")
	n := rng.Intn(maxRunes + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[rng.Intn(len(runes))])
	}
	return sb.String()
}

// TestMyersMatchesDP is the Myers ≡ DP property on randomized Unicode
// strings, covering the single-word fast path, the >64-byte block fallback,
// empty strings, and combining runes.
func TestMyersMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		maxRunes := 12
		if trial%3 == 0 {
			maxRunes = 90 // force multi-block patterns (bytes > 64)
		}
		a, b := randomUnicode(rng, maxRunes), randomUnicode(rng, maxRunes)
		if got, want := levenshtein(a, b), levenshteinDP(a, b); got != want {
			t.Fatalf("levenshtein(%q,%q) = %d, DP reference = %d", a, b, got, want)
		}
	}
	// Fixed boundary shapes.
	long := strings.Repeat("ab", 64) // 128 bytes: two blocks
	cases := [][2]string{
		{"", ""}, {"", long}, {long, long[:65]}, {long, "b" + long},
		{strings.Repeat("x", 64), strings.Repeat("x", 64) + "y"},
		{strings.Repeat("q", 65), strings.Repeat("q", 129)},
		{"é", "é"}, // combining acute vs precomposed é: distinct bytes
	}
	for _, c := range cases {
		if got, want := levenshtein(c[0], c[1]), levenshteinDP(c[0], c[1]); got != want {
			t.Fatalf("levenshtein(%.20q,%.20q) = %d, DP reference = %d", c[0], c[1], got, want)
		}
	}
}

// FuzzEditKernel cross-checks the bit-parallel distance against the DP
// reference and the prepared kernel against the plain function on arbitrary
// byte strings.
func FuzzEditKernel(f *testing.F) {
	f.Add("", "")
	f.Add("kitten", "sitting")
	f.Add("éé", "é")
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 41))
	f.Add(strings.Repeat("x", 200), strings.Repeat("xy", 100))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 512 || len(b) > 512 {
			return
		}
		if got, want := levenshtein(a, b), levenshteinDP(a, b); got != want {
			t.Fatalf("levenshtein(%q,%q) = %d, DP reference = %d", a, b, got, want)
		}
		var fn EditSimilarity
		k := fn.NewKernel(a)
		if got, want := k.Sim(b), fn.Sim(a, b); got != want {
			t.Fatalf("kernel Sim(%q,%q) = %v, Func.Sim = %v", a, b, got, want)
		}
		if want := fn.Sim(a, b); !admitted(fn, k, b, want) {
			t.Fatalf("(%q,%q) refused at its own sim %v", a, b, want)
		}
		// The same kernel, prepared for b and then reset to a, answers alike.
		k.Reset(b)
		k.Sim(a)
		k.Reset(a)
		if got, want := k.Sim(b), fn.Sim(a, b); got != want {
			t.Fatalf("reset kernel Sim(%q,%q) = %v, Func.Sim = %v", a, b, got, want)
		}
	})
}

// admitted reports whether k's cuts at alpha let cand's sketch through,
// by the rule Kernel.Cuts states.
func admitted(fn Batcher, k Kernel, cand string, alpha float64) bool {
	var cut [SketchClasses]int32
	q := k.Cuts(alpha, &cut)
	s := fn.Sketch(cand)
	return cut[uint8(s)] >= 0 && bits.OnesCount64((s^q)>>8) <= int(cut[uint8(s)])
}

// TestKernelsMatchFunc: for every Batcher function, the prepared kernel's
// Sim and SimBatch return exactly Func.Sim, and its cuts let every
// candidate through at its own similarity.
func TestKernelsMatchFunc(t *testing.T) {
	funcs := []Batcher{
		EditSimilarity{},
		JaccardQGrams{Q: 3},
		JaccardQGrams{Q: 2},
		JaccardWords{},
		Thresholded{Fn: EditSimilarity{}, Alpha: 0.6},
		Thresholded{Fn: JaccardQGrams{}, Alpha: 0.5},
	}
	rng := rand.New(rand.NewSource(72))
	for _, fn := range funcs {
		cands := make([]string, 64)
		out := make([]float64, len(cands))
		for trial := 0; trial < 40; trial++ {
			maxRunes := 10
			if trial%4 == 0 {
				maxRunes = 80
			}
			q := randomUnicode(rng, maxRunes)
			k := NewKernel(fn, q)
			if k == nil {
				t.Fatalf("%s: no kernel", fn.Name())
			}
			for i := range cands {
				cands[i] = randomUnicode(rng, maxRunes)
			}
			k.SimBatch(cands, out)
			for i, c := range cands {
				want := fn.Sim(q, c)
				if got := k.Sim(c); got != want {
					t.Fatalf("%s kernel Sim(%q,%q) = %v, want %v", fn.Name(), q, c, got, want)
				}
				if out[i] != want {
					t.Fatalf("%s SimBatch[%d] (%q,%q) = %v, want %v", fn.Name(), i, q, c, out[i], want)
				}
				if !admitted(fn, k, c, want) {
					t.Fatalf("%s refused (%q,%q) at its own sim %v", fn.Name(), q, c, want)
				}
			}
		}
	}
}

// TestKernelResetMatchesNewKernel: one kernel per function, reset from
// element to element — short, past 64 bytes, empty, repeated — answers
// every candidate exactly as a kernel NewKernel prepared for that element,
// cuts included, whether or not its masks were built for the element before.
func TestKernelResetMatchesNewKernel(t *testing.T) {
	funcs := []Batcher{
		EditSimilarity{},
		JaccardQGrams{Q: 3},
		JaccardWords{},
		Thresholded{Fn: EditSimilarity{}, Alpha: 0.6},
	}
	rng := rand.New(rand.NewSource(74))
	cands := make([]string, 32)
	got, want := make([]float64, len(cands)), make([]float64, len(cands))
	for _, fn := range funcs {
		reused := fn.NewKernel("")
		for trial := 0; trial < 60; trial++ {
			maxRunes := []int{0, 8, 80, 8}[trial%4]
			q := randomUnicode(rng, maxRunes)
			for i := range cands {
				cands[i] = randomUnicode(rng, 80)
			}
			if trial%3 == 0 {
				cands[0] = q
			}
			reused.Reset(q)
			fresh := fn.NewKernel(q)
			if trial%5 != 4 { // sometimes the element before leaves no masks
				reused.SimBatch(cands, got)
				fresh.SimBatch(cands, want)
				for i, c := range cands {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d: reset kernel Sim(%q,%q) = %v, NewKernel's = %v", fn.Name(), trial, q, c, got[i], want[i])
					}
				}
			}
			var cr, cf [SketchClasses]int32
			for _, alpha := range []float64{0.5, 0.8} {
				if reused.Cuts(alpha, &cr) != fresh.Cuts(alpha, &cf) || cr != cf {
					t.Fatalf("%s trial %d: reset kernel's cuts at α=%v differ from NewKernel's", fn.Name(), trial, alpha)
				}
			}
		}
	}
}

// TestFilterSoundness is the admission-filter property the scan paths rely
// on: whenever the cuts refuse a candidate its true similarity is < α, so
// skipping the pair cannot change any α-edge.
func TestFilterSoundness(t *testing.T) {
	funcs := []Batcher{EditSimilarity{}, JaccardQGrams{Q: 3}, JaccardWords{}}
	alphas := []float64{0.3, 0.5, 0.8, 0.95}
	rng := rand.New(rand.NewSource(73))
	for _, fn := range funcs {
		for trial := 0; trial < 300; trial++ {
			q := randomUnicode(rng, 20)
			c := randomUnicode(rng, 20)
			k := NewKernel(fn, q)
			for _, alpha := range alphas {
				if !admitted(fn, k, c, alpha) && fn.Sim(q, c) >= alpha {
					t.Fatalf("%s filtered (%q,%q) at α=%v but sim=%v",
						fn.Name(), q, c, alpha, fn.Sim(q, c))
				}
			}
		}
	}
}

func TestThresholdedName(t *testing.T) {
	f := Thresholded{Fn: EditSimilarity{}, Alpha: 0.8}
	if got := f.Name(); got != "edit@0.8" {
		t.Fatalf("Name() = %q, want edit@0.8", got)
	}
	f.Alpha = 0.75
	if got := f.Name(); got != "edit@0.75" {
		t.Fatalf("Name() = %q, want edit@0.75", got)
	}
}

// BenchmarkEditKernel compares the DP reference, the bit-parallel pairwise
// path, and the prepared batch kernel on a synthetic vocabulary of short
// tokens (the FuncIndex/DynamicFunc scan shape).
func BenchmarkEditKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(74))
	vocab := make([]string, 512)
	letters := []rune("abcdefghijklmnop")
	for i := range vocab {
		n := 4 + rng.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteRune(letters[rng.Intn(len(letters))])
		}
		vocab[i] = sb.String()
	}
	q := vocab[0][:len(vocab[0])-1] + "zz"
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tok := range vocab {
				levenshteinDP(q, tok)
			}
		}
	})
	b.Run("myers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tok := range vocab {
				levenshtein(q, tok)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		k := NewKernel(EditSimilarity{}, q)
		out := make([]float64, len(vocab))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.SimBatch(vocab, out)
		}
	})
}

// TestEditCuts checks the admission table against its definition, length by
// length: a stored length is refused exactly when no distance from the
// length difference up gives editRatio ≥ α, and otherwise admits signature
// distances up to twice the largest distance that does — over query lengths
// on both sides of the 255-byte saturation and α on, off and between the
// representable ratios.
func TestEditCuts(t *testing.T) {
	alphas := []float64{math.Inf(-1), -1, 0, 0.3, 0.5, 0.75, 0.8, math.Nextafter(0.8, 1), 0.875,
		math.Nextafter(0.875, 0), 1, math.Nextafter(1, 2), 1.5, math.Inf(1), math.NaN()}
	for _, la := range []int{0, 1, 4, 5, 8, 63, 64, 65, 200, 254, 255, 256, 300, 2000} {
		k := EditSimilarity{}.NewKernel(strings.Repeat("q", la)).(*editKernel)
		for _, alpha := range alphas {
			var cut [SketchClasses]int32
			if q := k.Cuts(alpha, &cut); q != (EditSimilarity{}).Sketch(k.q) {
				t.Fatalf("|q|=%d α=%v: Cuts returned sketch %x, want q's", la, alpha, q)
			}
			for lb := 0; lb < classMax; lb++ {
				m, delta := max(la, lb), max(la-lb, lb-la)
				dmax := -1
				for d := 0; d <= m; d++ {
					if r := editRatio(d, m); r >= alpha || (m == 0 && 1 >= alpha) {
						dmax = d
					}
				}
				want := int32(-1)
				if dmax >= delta {
					want = int32(min(2*dmax, SignatureBits))
				}
				if cut[lb] != want {
					t.Fatalf("|q|=%d α=%v: cut[%d] = %d, want %d (dmax %d)", la, alpha, lb, cut[lb], want, dmax)
				}
			}
			// The saturated length stands for 255 and everything longer: it
			// may be refused only if every such length would be.
			if cut[classMax] != -1 && cut[classMax] != SignatureBits {
				t.Fatalf("|q|=%d α=%v: saturated cut %d is a distance cut", la, alpha, cut[classMax])
			}
			for _, lb := range []int{255, 256, 300, 1000, 5000} {
				m, delta := max(la, lb), max(la-lb, lb-la)
				if editRatio(delta, m) >= alpha && cut[classMax] < 0 {
					t.Fatalf("|q|=%d α=%v: saturated length refused although length %d can reach α", la, alpha, lb)
				}
			}
		}
	}
}

// TestEditSketchSaturation: tokens past 255 bytes are scanned correctly —
// near-identical long strings stay neighbours, and a short query refuses
// them only when no length ≥ 255 could reach α.
func TestEditSketchSaturation(t *testing.T) {
	var fn EditSimilarity
	long := strings.Repeat("lorem ipsum ", 30) // 360 bytes
	near := long[:200] + "X" + long[201:]
	for _, c := range [][2]string{{long, near}, {long[:255], long[:256]}, {long[:254], long[:300]}, {"abcd", long}} {
		for _, alpha := range []float64{0.1, 0.5, 0.8, 0.99, 1} {
			k := fn.NewKernel(c[0])
			if s := fn.Sim(c[0], c[1]); s >= alpha && !admitted(fn, k, c[1], alpha) {
				t.Fatalf("(%d bytes, %d bytes) refused at α=%v with sim %v", len(c[0]), len(c[1]), alpha, s)
			}
		}
	}
	if admitted(fn, fn.NewKernel("abcd"), long, 0.8) {
		t.Fatal("a 4-byte query admits a saturated length at α=0.8")
	}
}

// TestCountCuts checks the Jaccard kernels' table against its definition:
// class c is admitted whole iff c/|A| can reach α — and the saturated class
// whenever α ≤ 1, since it stands for counts without limit — for query
// distinct counts on both sides of the saturation.
func TestCountCuts(t *testing.T) {
	for _, nA := range []int{0, 1, 3, 200, 254, 255, 256, 400} {
		for _, alpha := range []float64{math.Inf(-1), 0, 0.3, 0.5, 0.7, 1, math.Nextafter(1, 2), math.NaN()} {
			var cut [SketchClasses]int32
			if q := countCuts(nA, alpha, &cut); q != 0 {
				t.Fatalf("|A|=%d α=%v: query sketch %x, want 0", nA, alpha, q)
			}
			for c := range cut {
				reach := alpha <= 1 && (c >= nA || float64(c)/float64(nA) >= alpha)
				want := int32(-1)
				if reach || c == classMax && alpha <= 1 {
					want = SignatureBits
				}
				if cut[c] != want {
					t.Fatalf("|A|=%d α=%v: cut[%d] = %d, want %d", nA, alpha, c, cut[c], want)
				}
			}
		}
	}
}
