package index

import (
	"bytes"
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

// scan appends every token (except the query itself) with similarity ≥
// alpha to buf in ascending position, past the memo; a token's position in
// tokens is its ID.
func (f *funcScan) scan(tokens []string, q string, alpha float64, buf []Neighbor) []Neighbor {
	bufs := [1][]Neighbor{buf}
	s := funcScratches.Get().(*funcScratch)
	f.scanNeighbors(s, tokens, []string{q}, alpha, bufs[:])
	funcScratches.Put(s)
	return bufs[0]
}

// unfilteredNeighbors is the kernel scan with admission off: every position
// of tokens through kernelScan's block loop.
func unfilteredNeighbors(fn sim.Func, tokens []string, q string, alpha float64) []Neighbor {
	pos := make([]int32, len(tokens))
	for i := range pos {
		pos[i] = int32(i)
	}
	return sorted(new(funcScratch).kernelScan(sim.NewKernel(fn, q), tokens, pos, q, alpha, nil))
}

// classModes runs f on the class test this CPU selected and, where that is
// the VPOPCNTDQ kernel, on the portable loop as well; mode names the one
// running.
func classModes(f func(mode string)) {
	defer func(v bool) { useVPOPCNT = v }(useVPOPCNT)
	f(classKernelName())
	if useVPOPCNT {
		useVPOPCNT = false
		f(classKernelName())
	}
}

// classKernelName names the kernel classMasks runs now.
func classKernelName() string {
	if useVPOPCNT {
		return "vpopcnt"
	}
	return "portable"
}

// classSize is the number of positions v's classes hold.
func classSize(v *sketchView) int {
	n := 0
	for _, cl := range v.classes {
		n += len(cl.pos)
	}
	return n
}

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
// sims, same IDs, same order — on every class-test kernel.
func TestFuncIndexKernelEquivalence(t *testing.T) {
	classModes(func(mode string) {
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
			plainIdx := NewFuncIndex(vocab, plainFunc{fn})
			for trial := 0; trial < 25; trial++ {
				q := vocab[rng.Intn(len(vocab))]
				if trial%5 == 0 {
					q += "x" // out-of-vocabulary query element
				}
				for _, alpha := range []float64{0.3, 0.6, 0.8} {
					label := fmt.Sprintf("%s %s q=%q α=%v", mode, fn.Name(), q, alpha)
					want := plainIdx.Neighbors(q, alpha)
					neighborsEqual(t, label, kernelIdx.Neighbors(q, alpha), want)
					neighborsEqual(t, label+" nofilters", unfilteredNeighbors(fn, vocab, q, alpha), want)
				}
			}
		}
	})
}

// TestDynamicFuncKernelEquivalence: the dynamic source's kernel scan, with
// and without admission filters, must match its plain scan on every
// class-test kernel.
func TestDynamicFuncKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	vocab := kernelTestVocab(rng, 300)
	funcs := []sim.Func{sim.EditSimilarity{}, sim.JaccardQGrams{Q: 3}, sim.JaccardWords{}}
	classModes(func(mode string) {
		dict, err := sets.NewDictionaryFromTokens(vocab)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range funcs {
			plain := NewDynamicFunc(dict, plainFunc{fn})
			kernel := NewDynamicFunc(dict, fn)
			for trial := 0; trial < 20; trial++ {
				q := vocab[rng.Intn(len(vocab))]
				for _, alpha := range []float64{0.3, 0.4, 0.7, 0.85} {
					label := fmt.Sprintf("%s %s q=%q α=%v", mode, fn.Name(), q, alpha)
					want := plain.Neighbors(q, alpha)
					neighborsEqual(t, label, kernel.Neighbors(q, alpha), want)
					neighborsEqual(t, label+" nofilters", unfilteredNeighbors(fn, dict.Snapshot(), q, alpha), want)
				}
			}
		}
	})

	// growth: a view loaded before the dictionary grows keeps answering for
	// exactly its own tokens while Sync appends to its classes behind it
	// (run under -race: the writer appends into the arrays the old view
	// shares), and a scan started afterwards sees the new tokens.
	t.Run("growth", func(t *testing.T) {
		classModes(func(mode string) {
			for _, fn := range funcs {
				dict, err := sets.NewDictionaryFromTokens(vocab[:100])
				if err != nil {
					t.Fatal(err)
				}
				src := NewDynamicFunc(dict, fn)
				src.Sync()
				old := src.col.view.Load()
				if len(old.tokens) != 100 || classSize(old) != 100 {
					t.Fatalf("%s %s: Sync covered %d tokens, %d sketches, want 100", mode, fn.Name(), len(old.tokens), classSize(old))
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
					s := new(funcScratch)
					got := s.kernelScan(k, old.tokens, old.admit(k, 0.4, s), q, 0.4, nil)
					neighborsEqual(t, mode+" "+fn.Name()+" old view", got, plain.scan(old.tokens, q, 0.4, nil))
				}
				<-done
				if v := src.col.view.Load(); len(v.tokens) != len(vocab) || classSize(v) != len(vocab) {
					t.Fatalf("%s %s: column covers %d tokens, %d sketches after growth, want %d", mode, fn.Name(), len(v.tokens), classSize(v), len(vocab))
				}
				for trial := 0; trial < 10; trial++ {
					q := vocab[100+trial*13%200]
					neighborsEqual(t, mode+" "+fn.Name()+" grown", src.Neighbors(q, 0.4), NewFuncIndex(vocab, plainFunc{fn}).Neighbors(q, 0.4))
				}
			}
		})
	})
}

// TestKernelScanSaturation: sketch classes saturate at 255 — edit lengths,
// gram-position and field counts alike — and the scan must still return the
// plain scan's neighbours across that seam: edit tokens and queries on both
// sides of 255 bytes, tokens with ≥ 256 gram positions and ≥ 256 fields,
// and queries with more than 255 distinct 3-grams and more than 255
// distinct words, against near copies that only class 255 holds. At
// α = 0.7 (3-grams) and 0.95 (words) those queries need more items than any
// class but 255 stands for, so the near copies are found only because class
// 255 is admitted whatever the least count.
func TestKernelScanSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	vocab := kernelTestVocab(rng, 150)
	letters := make([]byte, 400)
	for i := range letters {
		letters[i] = byte('a' + rng.Intn(26))
	}
	long := string(letters) // ≈ 398 distinct 3-grams
	words := make([]string, 300)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	wordy := strings.Join(words, " ") // 300 distinct words
	queries := []string{long, long[:255], long[:254], long[:256] + "x", wordy, strings.Join(words[:255], " "), vocab[0]}
	vocab = append(vocab,
		long, long[:399]+"Z", long[1:], long[:300], long[:256], long[:255], long[:254], long[:253]+"Q",
		long[:254]+"QQ", long[:200],
		wordy, wordy+" extra", strings.Join(words[1:], " "), strings.Join(words[:256], " "),
		strings.Join(words[:255], " "), strings.Join(words[:254], " "), strings.Join(words[10:265], " "))
	funcs := []sim.Func{
		sim.EditSimilarity{},
		sim.JaccardQGrams{Q: 3},
		sim.JaccardQGrams{Q: 2},
		sim.JaccardWords{},
		sim.Thresholded{Fn: sim.EditSimilarity{}, Alpha: 0.6},
		sim.Thresholded{Fn: sim.JaccardQGrams{Q: 3}, Alpha: 0.5},
	}
	classModes(func(mode string) {
		for _, fn := range funcs {
			kernelIdx, plainIdx := NewFuncIndex(vocab, fn), NewFuncIndex(vocab, plainFunc{fn})
			for _, q := range queries {
				for _, alpha := range []float64{0.3, 0.6, 0.7, 0.8, 0.95} {
					label := fmt.Sprintf("%s %s |q|=%d α=%v", mode, fn.Name(), len(q), alpha)
					neighborsEqual(t, label, kernelIdx.Neighbors(q, alpha), plainIdx.Neighbors(q, alpha))
				}
			}
		}
	})
}

// tableKernel is a kernel that is nothing but a query sketch and a cut
// table: what admit reads.
type tableKernel struct {
	q   uint64
	cut [sim.SketchClasses]int32
}

func (k *tableKernel) Cuts(_ float64, cut *[sim.SketchClasses]int32) uint64 {
	*cut = k.cut
	return k.q
}
func (k *tableKernel) Sim(string) float64                     { panic("tableKernel only admits") }
func (k *tableKernel) SimBatch(cands []string, out []float64) { panic("tableKernel only admits") }
func (k *tableKernel) Reset(string)                           { panic("tableKernel only admits") }

// nearSketch returns a sketch of class c whose signature differs from q's in
// a uniformly drawn number of bits, 0 to SignatureBits, so that every cut
// sees sketches on both sides of it.
func nearSketch(rng *rand.Rand, q uint64, c uint8) uint64 {
	s := q&^0xff | uint64(c)
	for _, b := range rng.Perm(sim.SignatureBits)[:rng.Intn(sim.SignatureBits+1)] {
		s ^= 1 << (8 + b)
	}
	return s
}

// TestClassScanKernelsAgree: the class test is exact integer arithmetic, so
// the VPOPCNTDQ kernel and the portable loop must write the same mask bytes
// as a per-sketch popcount — for every class size from 0 to 40 (each tail of
// 1–7 past a multiple of 8, and the 32-sketch loop) and every cut from −1 to
// SignatureBits — and write nothing past the last byte. Then admit over
// whole columns, under random cut tables with class 255 and the cuts −1 and
// SignatureBits among them, and with classes past classChunk, must return
// exactly the positions the rule Kernel.Cuts states admits, one by one, in
// ascending order.
func TestClassScanKernelsAgree(t *testing.T) {
	kernels, names := []bool{false}, "portable"
	if useVPOPCNT {
		kernels, names = append(kernels, true), names+" vpopcnt"
	}
	t.Logf("class-test kernels on this CPU: %s; the scan runs %s", names, classKernelName())
	defer func(v bool) { useVPOPCNT = v }(useVPOPCNT)
	rng := rand.New(rand.NewSource(97))
	for n := 0; n <= 40; n++ {
		for cut := int32(-1); cut <= sim.SignatureBits; cut++ {
			q := rng.Uint64()
			sk := make([]uint64, n)
			for i := range sk {
				sk[i] = nearSketch(rng, q, uint8(rng.Intn(256)))
			}
			want := make([]byte, (n+7)/8)
			for i, s := range sk {
				if bits.OnesCount64((s^q)>>8) <= int(cut) {
					want[i/8] |= 1 << (i % 8)
				}
			}
			for _, vp := range kernels {
				useVPOPCNT = vp
				got := bytes.Repeat([]byte{0xa5}, len(want)+1)
				classMasks(sk, q, cut, got)
				if !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0xa5 {
					t.Fatalf("%s, %d sketches, cut %d: masks %x, want %x then a5", classKernelName(), n, cut, got, want)
				}
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		k := &tableKernel{q: rng.Uint64()}
		for c := range k.cut {
			k.cut[c] = int32(rng.Intn(sim.SignatureBits+3)) - 1 // −1 … SignatureBits+1
		}
		n := 1 + rng.Intn(600)
		if trial%50 == 0 {
			n = 7000 // class 255 past classChunk
		}
		var v sketchView
		var want []int32
		for i := int32(0); i < int32(n); i++ {
			c := uint8(rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				c = 255
			case 1:
				c = uint8(rng.Intn(256))
			}
			s := nearSketch(rng, k.q, c)
			cl := &v.classes[c]
			cl.pos, cl.sk = append(cl.pos, i), append(cl.sk, s)
			v.tokens = append(v.tokens, "")
			if k.cut[uint8(s)] >= 0 && bits.OnesCount64((s^k.q)>>8) <= int(k.cut[uint8(s)]) {
				want = append(want, i)
			}
		}
		for _, vp := range kernels {
			useVPOPCNT = vp
			if got := v.admit(k, 0, new(funcScratch)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, trial %d: admitted %v, want %v", classKernelName(), trial, got, want)
			}
		}
	}
}

// admitsSketch reports whether the scan's admission lets a token with
// sketch s through k at alpha: a column of that one token.
func admitsSketch(k sim.Kernel, s uint64, alpha float64) bool {
	v := sketchView{tokens: []string{""}}
	v.classes[uint8(s)] = sketchClass{pos: []int32{0}, sk: []uint64{s}}
	return len(v.admit(k, alpha, new(funcScratch))) == 1
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
// strings and thresholds, on every class-test kernel: the signature
// distance never exceeds twice the edit distance, a refused candidate is
// below α (and a candidate is never refused at its own similarity), and the
// kernel scan over a vocabulary cut from the two strings returns the plain
// per-pair scan's neighbours.
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
		seen := map[string]bool{}
		var vocab []string
		for _, tok := range []string{a, b, a + b, b + a, a[:len(a)/2], b[len(b)/2:], a[len(a)/2:] + b[:len(b)/2], "", a + "x", "y" + b} {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
		classModes(func(mode string) {
			k := fn.NewKernel(a)
			s := fn.Sim(a, b)
			for _, al := range []float64{alpha, s, math.Nextafter(s, 2)} {
				if !admitsSketch(k, sb, al) && s >= al {
					t.Fatalf("%s: (%q,%q) refused at α=%v with sim %v", mode, a, b, al, s)
				}
			}
			if !admitsSketch(k, sb, s) {
				t.Fatalf("%s: (%q,%q) refused at its own sim %v", mode, a, b, s)
			}
			kernel, plain := NewFuncIndex(vocab, fn), NewFuncIndex(vocab, plainFunc{fn})
			for _, q := range []string{a, b, a + "z"} {
				neighborsEqual(t, fmt.Sprintf("%s q=%q α=%v", mode, q, alpha), kernel.Neighbors(q, alpha), plain.Neighbors(q, alpha))
			}
		})
	})
}
