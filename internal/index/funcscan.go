package index

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// funcScan is the exhaustive scan FuncIndex and DynamicFunc share: every
// token of a list scored against the query element under an arbitrary
// similarity function. Functions exposing prepared kernels (sim.Batcher)
// are scanned through them: the kernel's cuts are tested against the
// function's sketch of every token — one word each, kept by class beside
// the list — and only the positions they cannot prove below α are
// evaluated, in blocks per SimBatch call with the query's precomputed state
// hot. Both are pure accelerations — results are byte-identical to the
// plain per-pair scan (DESIGN.md §12). The memo keeps, by dictionary ID,
// the neighbours each probed vocabulary token's scan found.
type funcScan struct {
	fn  sim.Func
	col sketchColumn
	// kernels pools fn's kernels, one per scan in flight: a scan resets
	// one for each of its elements, and hands it back holding no element.
	kernels sync.Pool
	memo    neighbourMemo
}

// PairSim implements CompleteScorer: the similarity function itself.
func (f *funcScan) PairSim(a, b string) float64 { return f.fn.Sim(a, b) }

// growMemo gives the memo a slot for each of n tokens, under the sketch
// column's writer lock.
func (f *funcScan) growMemo(n int) {
	if f.memo.size() >= n {
		return
	}
	f.col.mu.Lock()
	defer f.col.mu.Unlock()
	f.memo.grow(n)
}

// probe is the LazySource probe of the sources over a funcScan: each
// element is answered from the memo when the entry at its ID (idOf; -1
// outside the vocabulary) covers tokens at alpha, and the rest are scanned
// together, each into its list of bufs. What the scan finds for an element
// the vocabulary holds is stored; a string outside it is scanned every
// time.
func (f *funcScan) probe(tokens []string, qs []string, alpha float64, bufs [][]Neighbor, idOf func(string) int) {
	s := funcScratches.Get().(*funcScratch)
	miss, at, ids, group := s.miss[:0], s.at[:0], s.qids[:0], s.bufs[:0]
	for i, q := range qs {
		id := idOf(q)
		if e := f.memo.load(id, alpha, len(tokens)); e != nil {
			bufs[i] = e.appendTo(bufs[i], tokens, int32(len(tokens)))
			continue
		}
		miss, at, ids, group = append(miss, q), append(at, i), append(ids, id), append(group, bufs[i])
	}
	f.scanNeighbors(s, tokens, miss, alpha, group)
	for g, i := range at {
		f.memo.store(ids[g], alpha, len(tokens), group[g][len(bufs[i]):])
		bufs[i] = group[g]
	}
	clear(miss) // a pooled scratch pins no request's strings
	clear(group)
	s.miss, s.at, s.qids, s.bufs = miss, at, ids, group
	funcScratches.Put(s)
}

// scanNeighbors appends to bufs[i] every token of tokens except qs[i]
// itself with similarity ≥ alpha to qs[i], in ascending position; a token's
// position in tokens is its ID. The elements share one kernel, reset from
// one to the next (a kernel is prepared for one query string, so there is
// nothing else for them to share). s is the scan's scratch.
func (f *funcScan) scanNeighbors(s *funcScratch, tokens []string, qs []string, alpha float64, bufs [][]Neighbor) {
	if len(qs) == 0 {
		return
	}
	b, _ := f.fn.(sim.Batcher)
	var k sim.Kernel
	if b != nil {
		if k, _ = f.kernels.Get().(sim.Kernel); k == nil {
			k = b.NewKernel("")
		}
	}
	if k == nil {
		for i, q := range qs {
			for vi, tok := range tokens {
				if tok == q {
					continue
				}
				if s := f.fn.Sim(q, tok); s >= alpha {
					bufs[i] = append(bufs[i], Neighbor{Token: tok, Sim: s, ID: int32(vi)})
				}
			}
		}
		return
	}
	v := f.col.cover(b, tokens)
	for i, q := range qs {
		k.Reset(q)
		bufs[i] = s.kernelScan(k, tokens, v.admit(k, alpha, s), q, alpha, bufs[i])
	}
	k.Reset("")
	f.kernels.Put(k)
}

// funcScratch is what one kernel scan needs beside its output: the cut
// table and the admitted positions, and the block of candidates SimBatch
// scores. The kernel interface takes pointers into all of them, so on the
// stack they would escape: pooled, a scan allocates only its neighbours.
// A probe adds the elements the memo did not answer: the strings, their
// indexes in the probe, their IDs and their lists.
type funcScratch struct {
	cut   [sim.SketchClasses]int32
	pos   []int32
	cands [kernelBlock]string
	sims  [kernelBlock]float64
	ids   [kernelBlock]int32
	miss  []string
	at    []int
	qids  []int
	bufs  [][]Neighbor
}

var funcScratches = sync.Pool{New: func() any { return new(funcScratch) }}

// sketchColumn keeps a similarity function's sketch of every token of an
// append-only token list, split by class. Readers take no lock: cover
// extends the column under the writer mutex and then publishes an immutable
// view through one atomic pointer, and a scan runs to the end on the view it
// loaded (the discipline of DynamicExact's vector arena). The zero value is
// an empty column, so the first scan — or the first Sync — builds it.
type sketchColumn struct {
	mu   sync.Mutex // serializes cover's slow path and the memo's growth; never taken by a covered reader
	view atomic.Pointer[sketchView]
}

// sketchView is one published state of a sketchColumn: every position i of
// tokens sits in classes[uint8(s)] with s = Sketch(tokens[i]).
type sketchView struct {
	tokens  []string
	classes [sim.SketchClasses]sketchClass
}

// sketchClass is the tokens of one class: their positions, ascending, and
// their sketches, sk[j] the sketch of tokens[pos[j]].
type sketchClass struct {
	pos []int32
	sk  []uint64
}

// cover returns a view over at least tokens, which must extend the list
// every earlier call passed.
func (c *sketchColumn) cover(b sim.Batcher, tokens []string) *sketchView {
	if v := c.view.Load(); v != nil && len(v.tokens) >= len(tokens) {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := new(sketchView)
	if old := c.view.Load(); old != nil {
		if len(old.tokens) >= len(tokens) {
			return old // another cover got here first
		}
		// append writes only past old's lengths: its readers never see it
		*next = *old
	}
	from := len(next.tokens)
	next.tokens = tokens
	for i, tok := range tokens[from:] {
		s := b.Sketch(tok)
		cl := &next.classes[uint8(s)]
		cl.pos = append(cl.pos, int32(from+i))
		cl.sk = append(cl.sk, s)
	}
	c.view.Store(next)
	return next
}

// classChunk is how many sketches of a class one classMasks call tests: the
// mask stays on the stack.
const classChunk = 2048

// admit returns, in ascending order, the position of every token whose
// sketch passes k's cuts at alpha, in s.pos. A class cut at −1 is never
// read, a class cut at SignatureBits or more is taken whole (no signature
// has more bits to differ in), and the rest go through classMasks at their
// class's constant cut. The survivors come out class by class; they are
// sorted back into position order, the order the plain loop emits.
func (v *sketchView) admit(k sim.Kernel, alpha float64, s *funcScratch) []int32 {
	cut := &s.cut
	q := k.Cuts(alpha, cut)
	out := s.pos[:0]
	var mask [classChunk / 8]byte
	for c := range v.classes {
		cl := &v.classes[c]
		switch {
		case cut[c] < 0 || len(cl.pos) == 0: // refused whole, or empty
		case cut[c] >= sim.SignatureBits:
			out = append(out, cl.pos...)
		default:
			for base := 0; base < len(cl.sk); base += classChunk {
				sk := cl.sk[base:min(base+classChunk, len(cl.sk))]
				classMasks(sk, q, cut[c], mask[:])
				n := (len(sk) + 7) / 8
				clear(mask[n : (n+7)&^7]) // the last word's bytes past the class
				out = appendMasked(out, cl.pos[base:], mask[:(n+7)&^7])
			}
		}
	}
	slices.Sort(out)
	s.pos = out
	return out
}

// appendMasked appends pos[i] to out for every set bit i of mask, whose
// length is a multiple of 8, in ascending order, a mask word at a time: at
// α = 0.8 on a dictionary nearly every word is zero.
func appendMasked(out, pos []int32, mask []byte) []int32 {
	for w := 0; w < len(mask); w += 8 {
		for m := binary.LittleEndian.Uint64(mask[w:]); m != 0; m &= m - 1 {
			out = append(out, pos[8*w+bits.TrailingZeros64(m)])
		}
	}
	return out
}

// kernelBlock is the batch granularity of the kernel scan: enough to
// amortize the per-block interface call, small enough that the candidate
// block stays in cache.
const kernelBlock = 128

// kernelScan is the batched scan loop: the tokens at pos, ascending, minus
// the query itself, are gathered into blocks and evaluated per SimBatch
// call. Positions past tokens, which a column covering a later snapshot
// admits, are not read. When pos holds every position admit lets through,
// buf holds on return exactly the α-matches of the plain scan of tokens, in
// the same ascending order.
func (s *funcScratch) kernelScan(k sim.Kernel, tokens []string, pos []int32, q string, alpha float64, buf []Neighbor) []Neighbor {
	n := 0
	flush := func() {
		k.SimBatch(s.cands[:n], s.sims[:n])
		for i, score := range s.sims[:n] {
			if score >= alpha {
				buf = append(buf, Neighbor{Token: s.cands[i], Sim: score, ID: s.ids[i]})
			}
		}
		n = 0
	}
	for _, vi := range pos {
		if int(vi) >= len(tokens) {
			break
		}
		if tokens[vi] == q {
			continue
		}
		s.cands[n], s.ids[n] = tokens[vi], vi
		if n++; n == kernelBlock {
			flush()
		}
	}
	flush()
	return buf
}

// FuncIndex is a brute-force NeighborSource for an arbitrary similarity
// function over a fixed vocabulary — the fallback that keeps Koios
// independent of the choice of sim. The sketch column is built on the first
// scan that reads it.
type FuncIndex struct {
	vocab []string
	id    map[string]int32 // position in vocab
	funcScan
}

// NewFuncIndex indexes vocab under fn.
func NewFuncIndex(vocab []string, fn sim.Func) *FuncIndex {
	f := &FuncIndex{vocab: vocab, id: make(map[string]int32, len(vocab)), funcScan: funcScan{fn: fn}}
	for i, tok := range vocab {
		f.id[tok] = int32(i)
	}
	f.memo.grow(len(vocab))
	return f
}

// Neighbors implements NeighborSource.
func (f *FuncIndex) Neighbors(q string, alpha float64) []Neighbor {
	return neighbors(f, q, alpha)
}

// ScanNeighbors implements LazySource.
func (f *FuncIndex) ScanNeighbors(qs []string, alpha float64, bufs [][]Neighbor) {
	f.probe(f.vocab, qs, alpha, bufs, func(q string) int {
		if id, ok := f.id[q]; ok {
			return int(id)
		}
		return -1
	})
}
