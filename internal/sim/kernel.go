package sim

import (
	"math/bits"
	"strings"
)

// This file defines the optional kernel capability of a similarity function:
// a one-word sketch per token, computed once when the token enters a source,
// and prepared per-query kernels that keep the query side's precomputed
// state (Myers Peq table, q-gram profile, word set) hot across a whole scan
// and certify Sim(q, cand) < α from the sketch column alone. Both are pure
// accelerations — a candidate is refused admission only when its similarity
// is provably below α, and a kernel returns exactly Func.Sim — so consulting
// them never changes a result byte (DESIGN.md §12).

// Kernel is a prepared evaluator for one fixed query element: Sim and
// SimBatch return exactly what Func.Sim(q, cand) would, Admit is the sound
// pre-filter over the candidates' sketches. A Kernel is not safe for
// concurrent use (it owns per-query scratch); prepare one per goroutine.
type Kernel interface {
	// Sim returns exactly Func.Sim(q, cand).
	Sim(cand string) float64
	// Admit appends to out, in ascending order, every position i for which
	// sketches[i] does not prove Func.Sim(q, cand) < alpha, where cand is
	// the token sketches[i] was computed from by the function's Sketch. One
	// call covers a source's whole column.
	Admit(sketches []uint64, alpha float64, out []int32) []int32
	// SimBatch sets out[i] = Sim(cands[i]) for every candidate; len(out)
	// must be at least len(cands). One interface call evaluates a whole
	// block with the query's prepared state hot.
	SimBatch(cands []string, out []float64)
}

// Batcher is an optional Func capability: token sketches and the prepared
// per-query kernels that read them.
type Batcher interface {
	Func
	// NewKernel prepares a kernel for query element q, or returns nil when
	// the function cannot accelerate it (callers fall back to plain Sim).
	NewKernel(q string) Kernel
	// Sketch condenses tok into the word the kernels' Admit tests. It is a
	// pure function of tok.
	Sketch(tok string) uint64
}

// NewKernel prepares a kernel for fn and query element q, or returns nil
// when fn offers none.
func NewKernel(fn Func, q string) Kernel {
	if b, ok := fn.(Batcher); ok {
		return b.NewKernel(q)
	}
	return nil
}

// --- EditSimilarity ---------------------------------------------------------

// An edit-similarity sketch packs the token's byte length, saturated at
// editLenMax, into its low byte and a presence signature of its bytes into
// the sigBits above: byte value c sets signature bit c mod sigBits. Both
// bound the byte-level edit distance from below: lev(a,b) ≥ ||a|−|b||, and
// one insertion, deletion or substitution removes at most one byte value
// from the token's byte set and adds at most one, flipping at most two
// signature bits under any byte → bit map, so
// lev(a,b) ≥ ⌈popcount(sig(a)⊕sig(b))/2⌉ (the frequency-distance bound of
// Kahveci & Singh, VLDB 2001, reduced to presence bits).
const (
	sigBits    = 56
	editLenMax = 255
)

// Sketch implements Batcher.
func (EditSimilarity) Sketch(tok string) uint64 {
	s := uint64(min(len(tok), editLenMax))
	for i := 0; i < len(tok); i++ {
		s |= 1 << (8 + tok[i]%sigBits)
	}
	return s
}

// editRatio is the similarity of two distinct strings at byte edit distance
// d whose longer one has m bytes.
func editRatio(d, m int) float64 { return 1 - float64(d)/float64(m) }

// editDmax returns the largest distance d ≤ m with editRatio(d, m) ≥ alpha,
// for alpha ≤ 1. editRatio is non-increasing in d (a correctly rounded
// division and subtraction are monotone), so every distance above the
// result gives a similarity below alpha — exactly, rounding included.
func editDmax(m int, alpha float64) int {
	if m == 0 {
		return 0 // "" against "": equal strings, similarity 1
	}
	if alpha <= 0 {
		return m
	}
	d := min(int((1-alpha)*float64(m)), m) // within one of the answer
	for d < m && editRatio(d+1, m) >= alpha {
		d++
	}
	for editRatio(d, m) < alpha { // editRatio(0, m) = 1 ≥ alpha ends it
		d--
	}
	return d
}

// NewKernel implements Batcher. The Myers match masks of q are built on the
// first similarity evaluated, so a scan whose candidates all fail admission
// never pays for them.
func (EditSimilarity) NewKernel(q string) Kernel {
	return &editKernel{q: q, sketch: EditSimilarity{}.Sketch(q)}
}

type editKernel struct {
	q        string
	sketch   uint64
	prepared bool
	peq      *[256]uint64 // single-word masks, valid when 0 < len(q) ≤ 64
	words    int          // block count when len(q) > 64
	blockPeq []uint64
	pv, mv   []uint64 // block scratch, reused across candidates
}

// prepare builds q's match masks; it runs once, before the first distance.
func (k *editKernel) prepare() {
	k.prepared = true
	q := k.q
	if len(q) <= myersWordBits {
		k.peq = new([256]uint64)
		for i := 0; i < len(q); i++ {
			k.peq[q[i]] |= 1 << uint(i)
		}
		return
	}
	k.words = (len(q) + myersWordBits - 1) / myersWordBits
	k.blockPeq = buildBlockPeq(q, k.words)
	k.pv = make([]uint64, k.words)
	k.mv = make([]uint64, k.words)
}

func (k *editKernel) Sim(cand string) float64 {
	if cand == k.q {
		return 1
	}
	la, lb := len(k.q), len(cand)
	if la == 0 || lb == 0 {
		return 0
	}
	if !k.prepared {
		k.prepare()
	}
	var d int
	if la <= myersWordBits {
		d = myersShort(k.peq, la, cand)
	} else {
		d = myersBlocks(k.blockPeq, la, k.words, cand, k.pv, k.mv)
	}
	return editRatio(d, max(la, lb))
}

// cuts fills cut[l], for every stored candidate length l, with the largest
// signature distance a candidate of that length may show and still reach
// alpha — twice dmax, the largest edit distance with editRatio ≥ alpha at
// that pair of lengths — or −1 when the length difference alone exceeds
// dmax. Admission is then the single test cut[l] − popcount ≥ 0.
func (k *editKernel) cuts(alpha float64, cut *[editLenMax + 1]int32) {
	for l := range cut {
		cut[l] = -1
	}
	if !(alpha <= 1) {
		return // α > 1 or NaN: not even an equal string reaches it
	}
	la := len(k.q)
	// Candidates no longer than q share m = |q| and so one dmax.
	d := editDmax(la, alpha)
	for l := max(la-d, 0); l <= min(la, editLenMax-1); l++ {
		cut[l] = int32(min(2*d, sigBits))
	}
	// Longer candidates: 1 − (l−|q|)/l only falls as l grows (rounding is
	// monotone), so the first length refused refuses every longer one.
	for l := la + 1; l <= editLenMax; l++ {
		d := editDmax(l, alpha)
		if d < l-la {
			break
		}
		cut[l] = int32(min(2*d, sigBits))
	}
	// A stored editLenMax stands for every length from there up, and no
	// distance cut holds for all of them: admit, unless q is shorter and
	// editLenMax, the nearest such length, is already too far.
	if la >= editLenMax || cut[editLenMax] >= 0 {
		cut[editLenMax] = sigBits
	}
}

// admitChunk is how many candidates Admit tests before it appends their
// survivors: the position buffer stays on the stack and out grows only by
// what was admitted.
const admitChunk = 256

// Admit implements Kernel. The loop carries no data-dependent branch —
// token lengths are interleaved in a dictionary, so a branch on the test
// mispredicts: every position is written and the cursor advances by the
// test's sign bit.
func (k *editKernel) Admit(sketches []uint64, alpha float64, out []int32) []int32 {
	var cut [editLenMax + 1]int32
	k.cuts(alpha, &cut)
	var pos [admitChunk]int32
	for base := 0; base < len(sketches); base += admitChunk {
		n := admitEdit(sketches[base:min(base+admitChunk, len(sketches))], k.sketch, &cut, int32(base), &pos)
		out = append(out, pos[:n]...)
	}
	return out
}

// admitEdit writes base+i to pos, in ascending order, for every sketches[i]
// that passes cut against the query sketch q, and returns how many it wrote.
// len(sketches) must not exceed admitChunk. It stays out of line: inlined,
// the cold call to the software popcount makes the compiler reload the
// loop's state from the stack on every iteration (2.4 against 1.8 ns a
// pair in BenchmarkFuncScan).
//
//go:noinline
func admitEdit(sketches []uint64, q uint64, cut *[editLenMax + 1]int32, base int32, pos *[admitChunk]int32) uint {
	n := uint(0)
	for i, s := range sketches {
		slack := cut[uint8(s)] - int32(bits.OnesCount64((s^q)>>8))
		pos[n%admitChunk] = base + int32(i)
		n += uint(^slack) >> 63
	}
	return n
}

func (k *editKernel) SimBatch(cands []string, out []float64) {
	for i, c := range cands {
		out[i] = k.Sim(c)
	}
}

// --- JaccardQGrams ----------------------------------------------------------

// Sketch implements Batcher: the token's gram-position count t, an upper
// bound on its distinct gram count. With A the query's distinct grams,
// |A∩B| ≤ min(|A|, t) and |A∪B| ≥ |A|, so J ≤ min(1, t/|A|). Length bounds
// alone are NOT sound for q-gram Jaccard (repeated grams:
// J("aaaa","aaaaaa") = 1 at any length ratio), which is why the test needs
// the query-side distinct count.
func (j JaccardQGrams) Sketch(tok string) uint64 { return uint64(gramPositions(tok, j.q())) }

// gramPositions is the number of gram positions of s — an upper bound on its
// distinct gram count, costing O(1).
func gramPositions(s string, q int) int {
	if len(s) <= q {
		if s == "" {
			return 0
		}
		return 1
	}
	return len(s) - q + 1
}

// admitCounts is Admit for the Jaccard kernels: sketches are upper bounds t
// on each candidate's distinct item count and nA is the query's distinct
// item count, so J ≤ min(1, t/nA) — which grows with t, making admission
// one comparison against the least count that reaches alpha.
func admitCounts(sketches []uint64, nA int, alpha float64, out []int32) []int32 {
	if !(alpha <= 1) {
		return out // α > 1 or NaN: nothing reaches it
	}
	least := uint64(0)
	for least < uint64(nA) && float64(least)/float64(nA) < alpha {
		least++
	}
	for i, t := range sketches {
		if t >= least {
			out = append(out, int32(i))
		}
	}
	return out
}

// NewKernel implements Batcher: the kernel interns q's distinct gram set
// once; each candidate is then a single dedup-and-count pass against it.
func (j JaccardQGrams) NewKernel(q string) Kernel {
	k := &qgramKernel{q: q, g: j.q(), scratch: make(map[string]bool)}
	k.grams = make(map[string]bool)
	for _, g := range QGrams(q, k.g) {
		k.grams[g] = true
	}
	return k
}

type qgramKernel struct {
	q       string
	g       int
	grams   map[string]bool // distinct grams of q
	scratch map[string]bool // candidate dedup set, cleared per call
}

func (k *qgramKernel) Sim(cand string) float64 {
	if cand == k.q {
		return 1
	}
	// Byte-identical to jaccard(QGrams(q), QGrams(cand)): the same distinct
	// intersection/union integers feed the same single division.
	inter, distinctB := 0, 0
	if len(cand) <= k.g {
		if cand != "" {
			distinctB = 1
			if k.grams[cand] {
				inter = 1
			}
		}
	} else {
		clear(k.scratch)
		for i := 0; i+k.g <= len(cand); i++ {
			g := cand[i : i+k.g]
			if k.scratch[g] {
				continue
			}
			k.scratch[g] = true
			distinctB++
			if k.grams[g] {
				inter++
			}
		}
	}
	union := len(k.grams) + distinctB - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func (k *qgramKernel) Admit(sketches []uint64, alpha float64, out []int32) []int32 {
	return admitCounts(sketches, len(k.grams), alpha, out)
}

func (k *qgramKernel) SimBatch(cands []string, out []float64) {
	for i, c := range cands {
		out[i] = k.Sim(c)
	}
}

// --- JaccardWords -----------------------------------------------------------

// Sketch implements Batcher: the word-set analogue of the q-gram sketch,
// the token's field count.
func (JaccardWords) Sketch(tok string) uint64 { return uint64(fieldCount(tok)) }

// fieldCount counts white-space separated fields without allocating — an
// upper bound on the distinct word count.
func fieldCount(s string) int {
	n := 0
	for range strings.FieldsSeq(s) {
		n++
	}
	return n
}

// NewKernel implements Batcher.
func (JaccardWords) NewKernel(q string) Kernel {
	k := &wordsKernel{q: q, words: make(map[string]bool), scratch: make(map[string]bool)}
	for w := range strings.FieldsSeq(q) {
		k.words[w] = true
	}
	return k
}

type wordsKernel struct {
	q       string
	words   map[string]bool // distinct words of q
	scratch map[string]bool // candidate dedup set, cleared per call
}

func (k *wordsKernel) Sim(cand string) float64 {
	if cand == k.q {
		return 1
	}
	// Byte-identical to jaccard(Fields(q), Fields(cand)).
	inter, distinctB := 0, 0
	clear(k.scratch)
	for w := range strings.FieldsSeq(cand) {
		if k.scratch[w] {
			continue
		}
		k.scratch[w] = true
		distinctB++
		if k.words[w] {
			inter++
		}
	}
	union := len(k.words) + distinctB - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func (k *wordsKernel) Admit(sketches []uint64, alpha float64, out []int32) []int32 {
	return admitCounts(sketches, len(k.words), alpha, out)
}

func (k *wordsKernel) SimBatch(cands []string, out []float64) {
	for i, c := range cands {
		out[i] = k.Sim(c)
	}
}

// --- Thresholded ------------------------------------------------------------

// Sketch implements Batcher by delegating to the wrapped function; nothing
// reads the sketches of a function without kernels.
func (t Thresholded) Sketch(tok string) uint64 {
	if b, ok := t.Fn.(Batcher); ok {
		return b.Sketch(tok)
	}
	return 0
}

// NewKernel implements Batcher: the inner function's kernel with the α
// collapse applied on top, or nil when the inner function offers none.
func (t Thresholded) NewKernel(q string) Kernel {
	inner := NewKernel(t.Fn, q)
	if inner == nil {
		return nil
	}
	return &thresholdedKernel{inner: inner, alpha: t.Alpha}
}

type thresholdedKernel struct {
	inner Kernel
	alpha float64
}

func (k *thresholdedKernel) Sim(cand string) float64 {
	s := k.inner.Sim(cand)
	if s < k.alpha {
		return 0
	}
	return s
}

// Admit delegates: the α-collapsed similarity never exceeds the raw one.
func (k *thresholdedKernel) Admit(sketches []uint64, alpha float64, out []int32) []int32 {
	return k.inner.Admit(sketches, alpha, out)
}

func (k *thresholdedKernel) SimBatch(cands []string, out []float64) {
	k.inner.SimBatch(cands, out)
	for i := range cands {
		if out[i] < k.alpha {
			out[i] = 0
		}
	}
}
