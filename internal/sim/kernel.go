package sim

import "strings"

// This file defines the optional kernel capability of a similarity function:
// a one-word sketch per token, computed once when the token enters a source,
// and prepared per-query kernels that keep the query side's precomputed
// state (Myers Peq table, q-gram profile, word set) hot across a whole scan
// and certify Sim(q, cand) < α from the sketch column alone. Both are pure
// accelerations — a candidate is refused admission only when its similarity
// is provably below α, and a kernel returns exactly Func.Sim — so consulting
// them never changes a result byte (DESIGN.md §12).

// A sketch's low byte is its class, a count saturated at classMax (the edit
// sketch's byte length, the Jaccard sketches' item count); the SignatureBits
// above it are a signature that only the edit sketch fills. Every kernel
// admits by one rule (Kernel.Cuts), so a source can keep its sketches by
// class and skip whole classes.
const (
	SketchClasses = 256
	classMax      = SketchClasses - 1
	SignatureBits = 56
)

// Kernel is a prepared evaluator for one fixed query element: Sim and
// SimBatch return exactly what Func.Sim(q, cand) would, Cuts is the sound
// pre-filter over the candidates' sketches. A Kernel is not safe for
// concurrent use (it owns per-query scratch); prepare one per goroutine.
// Reset re-prepares one for another element in its own storage, so a scan
// that keeps its kernels allocates none per element.
type Kernel interface {
	// Sim returns exactly Func.Sim(q, cand).
	Sim(cand string) float64
	// Cuts fills cut with the admission table at alpha and returns the
	// query's sketch q. A candidate whose sketch s has class c = uint8(s)
	// is admitted iff cut[c] ≥ 0 and popcount((s⊕q)>>8) ≤ cut[c], so a cut
	// of −1 refuses a whole class and a cut of SignatureBits admits one.
	// A refused candidate's Func.Sim(q, cand) is below alpha.
	Cuts(alpha float64, cut *[SketchClasses]int32) (q uint64)
	// SimBatch sets out[i] = Sim(cands[i]) for every candidate; len(out)
	// must be at least len(cands). One interface call evaluates a whole
	// block with the query's prepared state hot.
	SimBatch(cands []string, out []float64)
	// Reset prepares the kernel for query element q in the storage it
	// already has: it then answers exactly as its function's NewKernel(q)
	// would. Reset("") leaves it holding nothing of the element before.
	Reset(q string)
}

// Batcher is an optional Func capability: token sketches and the prepared
// per-query kernels that read them.
type Batcher interface {
	Func
	// NewKernel prepares a kernel for query element q, or returns nil when
	// the function cannot accelerate it (callers fall back to plain Sim).
	NewKernel(q string) Kernel
	// Sketch condenses tok into the word the kernels' Cuts test. It is a
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

// An edit-similarity sketch's class is the token's byte length, saturated
// at classMax, and its signature records the presence of its bytes: byte
// value c sets signature bit c mod SignatureBits. Both bound the byte-level
// edit distance from below: lev(a,b) ≥ ||a|−|b||, and one insertion,
// deletion or substitution removes at most one byte value from the token's
// byte set and adds at most one, flipping at most two signature bits under
// any byte → bit map, so lev(a,b) ≥ ⌈popcount(sig(a)⊕sig(b))/2⌉ (the
// frequency-distance bound of Kahveci & Singh, VLDB 2001, reduced to
// presence bits).

// Sketch implements Batcher.
func (EditSimilarity) Sketch(tok string) uint64 {
	s := uint64(min(len(tok), classMax))
	for i := 0; i < len(tok); i++ {
		s |= 1 << (8 + tok[i]%SignatureBits)
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
	k := new(editKernel)
	k.Reset(q)
	return k
}

type editKernel struct {
	q        string
	sketch   uint64
	prepared bool
	// peq holds the single-word masks of q when prepared and 0 < len(q) ≤
	// 64, and is zero otherwise: Reset clears the bytes of the element
	// before, not the whole table.
	peq      [256]uint64
	words    int // block count when len(q) > 64
	blockPeq []uint64
	pv, mv   []uint64 // block scratch, reused across candidates
}

// Reset implements Kernel.
func (k *editKernel) Reset(q string) {
	if k.prepared && len(k.q) <= myersWordBits {
		for i := 0; i < len(k.q); i++ {
			k.peq[k.q[i]] = 0
		}
	}
	k.q, k.sketch, k.prepared = q, EditSimilarity{}.Sketch(q), false
}

// prepare builds q's match masks; it runs once, before the first distance.
func (k *editKernel) prepare() {
	k.prepared = true
	q := k.q
	if len(q) <= myersWordBits {
		for i := 0; i < len(q); i++ {
			k.peq[q[i]] |= 1 << uint(i)
		}
		return
	}
	k.words = (len(q) + myersWordBits - 1) / myersWordBits
	k.blockPeq = buildBlockPeq(k.blockPeq, q, k.words)
	k.pv = reuse(k.pv, k.words)
	k.mv = reuse(k.mv, k.words)
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
		d = myersShort(&k.peq, la, cand)
	} else {
		d = myersBlocks(k.blockPeq, la, k.words, cand, k.pv, k.mv)
	}
	return editRatio(d, max(la, lb))
}

// Cuts implements Kernel: cut[l], for every stored candidate length l, is
// the largest signature distance a candidate of that length may show and
// still reach alpha — twice dmax, the largest edit distance with
// editRatio ≥ alpha at that pair of lengths — or −1 when the length
// difference alone exceeds dmax.
func (k *editKernel) Cuts(alpha float64, cut *[SketchClasses]int32) uint64 {
	for l := range cut {
		cut[l] = -1
	}
	if !(alpha <= 1) {
		return k.sketch // α > 1 or NaN: not even an equal string reaches it
	}
	la := len(k.q)
	// Candidates no longer than q share m = |q| and so one dmax.
	d := editDmax(la, alpha)
	for l := max(la-d, 0); l <= min(la, classMax-1); l++ {
		cut[l] = int32(min(2*d, SignatureBits))
	}
	// Longer candidates: 1 − (l−|q|)/l only falls as l grows (rounding is
	// monotone), so the first length refused refuses every longer one.
	for l := la + 1; l <= classMax; l++ {
		d := editDmax(l, alpha)
		if d < l-la {
			break
		}
		cut[l] = int32(min(2*d, SignatureBits))
	}
	// A stored classMax stands for every length from there up, and no
	// distance cut holds for all of them: admit, unless q is shorter and
	// classMax, the nearest such length, is already too far.
	if la >= classMax || cut[classMax] >= 0 {
		cut[classMax] = SignatureBits
	}
	return k.sketch
}

func (k *editKernel) SimBatch(cands []string, out []float64) {
	for i, c := range cands {
		out[i] = k.Sim(c)
	}
}

// --- JaccardQGrams ----------------------------------------------------------

// Sketch implements Batcher: the token's gram-position count t, an upper
// bound on its distinct gram count, saturated at classMax; the signature is
// empty. With A the query's distinct grams, |A∩B| ≤ min(|A|, t) and
// |A∪B| ≥ |A|, so J ≤ min(1, t/|A|). Length bounds alone are NOT sound for
// q-gram Jaccard (repeated grams: J("aaaa","aaaaaa") = 1 at any length
// ratio), which is why the test needs the query-side distinct count.
func (j JaccardQGrams) Sketch(tok string) uint64 {
	return uint64(min(gramPositions(tok, j.q()), classMax))
}

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

// countCuts is Cuts for the Jaccard kernels, whose sketches are classes
// alone: a class is an upper bound t on a candidate's distinct item count
// and nA is the query's distinct item count, so J ≤ min(1, t/nA) — which
// grows with t, so every class from the least count that reaches alpha up
// is admitted whole. So is classMax, whatever that least count: it stands
// for every count from there up, and J grows with them.
func countCuts(nA int, alpha float64, cut *[SketchClasses]int32) uint64 {
	for c := range cut {
		cut[c] = -1
	}
	if !(alpha <= 1) {
		return 0 // α > 1 or NaN: nothing reaches it
	}
	least := 0
	for least < nA && float64(least)/float64(nA) < alpha {
		least++
	}
	for c := min(least, classMax); c < SketchClasses; c++ {
		cut[c] = SignatureBits
	}
	return 0
}

// NewKernel implements Batcher: the kernel interns q's distinct gram set
// once; each candidate is then a single dedup-and-count pass against it.
func (j JaccardQGrams) NewKernel(q string) Kernel {
	k := &qgramKernel{g: j.q(), grams: make(map[string]bool), scratch: make(map[string]bool)}
	k.Reset(q)
	return k
}

// Reset implements Kernel. The grams are q's distinct QGrams, cut without
// building their list.
func (k *qgramKernel) Reset(q string) {
	k.q = q
	clear(k.grams)
	clear(k.scratch)
	switch {
	case q == "":
	case len(q) <= k.g:
		k.grams[q] = true
	default:
		for i := 0; i+k.g <= len(q); i++ {
			k.grams[q[i:i+k.g]] = true
		}
	}
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

func (k *qgramKernel) Cuts(alpha float64, cut *[SketchClasses]int32) uint64 {
	return countCuts(len(k.grams), alpha, cut)
}

func (k *qgramKernel) SimBatch(cands []string, out []float64) {
	for i, c := range cands {
		out[i] = k.Sim(c)
	}
}

// --- JaccardWords -----------------------------------------------------------

// Sketch implements Batcher: the word-set analogue of the q-gram sketch,
// the token's field count, saturated at classMax.
func (JaccardWords) Sketch(tok string) uint64 { return uint64(min(fieldCount(tok), classMax)) }

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
	k := &wordsKernel{words: make(map[string]bool), scratch: make(map[string]bool)}
	k.Reset(q)
	return k
}

// Reset implements Kernel.
func (k *wordsKernel) Reset(q string) {
	k.q = q
	clear(k.words)
	clear(k.scratch)
	for w := range strings.FieldsSeq(q) {
		k.words[w] = true
	}
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

func (k *wordsKernel) Cuts(alpha float64, cut *[SketchClasses]int32) uint64 {
	return countCuts(len(k.words), alpha, cut)
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

// Reset implements Kernel: α stays, the wrapped kernel takes q.
func (k *thresholdedKernel) Reset(q string) { k.inner.Reset(q) }

func (k *thresholdedKernel) Sim(cand string) float64 {
	s := k.inner.Sim(cand)
	if s < k.alpha {
		return 0
	}
	return s
}

// Cuts delegates: the α-collapsed similarity never exceeds the raw one.
func (k *thresholdedKernel) Cuts(alpha float64, cut *[SketchClasses]int32) uint64 {
	return k.inner.Cuts(alpha, cut)
}

func (k *thresholdedKernel) SimBatch(cands []string, out []float64) {
	k.inner.SimBatch(cands, out)
	for i := range cands {
		if out[i] < k.alpha {
			out[i] = 0
		}
	}
}
