package index

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// funcScan is the exhaustive scan FuncIndex and DynamicFunc share: every
// token of a list scored against the query element under an arbitrary
// similarity function. Functions exposing prepared kernels (sim.Batcher)
// are scanned through them: the kernel's Admit reads the function's sketch
// of every token — one word each, kept beside the list — and passes on only
// the positions it cannot prove below α, and blocks of those are evaluated
// per SimBatch call with the query's precomputed state hot. Both are pure
// accelerations — results are byte-identical to the plain per-pair scan
// (DESIGN.md §12).
type funcScan struct {
	fn        sim.Func
	noFilters bool
	col       sketchColumn
}

// SetKernelFilters toggles sketch admission in the kernel scan (on by
// default). Off retains the batched kernel but evaluates every pair — the
// axis the equivalence tests compare against.
func (f *funcScan) SetKernelFilters(on bool) { f.noFilters = !on }

// PairSim implements CompleteScorer: the similarity function itself.
func (f *funcScan) PairSim(a, b string) float64 { return f.fn.Sim(a, b) }

// scan appends every token (except the query itself) with similarity ≥
// alpha to buf in ascending position; a token's position in tokens is its
// ID.
func (f *funcScan) scan(tokens []string, q string, alpha float64, buf []Neighbor) []Neighbor {
	b, _ := f.fn.(sim.Batcher)
	var k sim.Kernel
	if b != nil {
		k = b.NewKernel(q)
	}
	switch {
	case k == nil:
		for vi, tok := range tokens {
			if tok == q {
				continue
			}
			if s := f.fn.Sim(q, tok); s >= alpha {
				buf = append(buf, Neighbor{Token: tok, Sim: s, ID: int32(vi)})
			}
		}
		return buf
	case f.noFilters:
		return kernelScan(k, tokens, nil, q, alpha, buf)
	default:
		v := f.col.cover(b, tokens)
		return kernelScan(k, v.tokens, v.sketches, q, alpha, buf)
	}
}

// cursors is the LazySource probe of the sources over a funcScan: one scan
// of tokens per query element (a kernel is prepared for one query string, so
// there is nothing for the elements to share).
func (f *funcScan) cursors(tokens []string, qs []string, alpha float64) []NeighborCursor {
	out := make([]NeighborCursor, len(qs))
	for i, q := range qs {
		out[i] = newLazyScan(f.scan(tokens, q, alpha, nil))
	}
	return out
}

// sketchColumn keeps a similarity function's sketch of every token of an
// append-only token list. Readers take no lock: cover extends the column
// under the writer mutex and then publishes an immutable view through one
// atomic pointer, and a scan runs to the end on the view it loaded (the
// discipline of DynamicExact's vector arena). The zero value is an empty
// column, so the first scan — or the first Sync — builds it.
type sketchColumn struct {
	mu   sync.Mutex // serializes cover's slow path; never taken by a covered reader
	view atomic.Pointer[sketchView]
}

// sketchView is one published state of a sketchColumn:
// sketches[i] = Sketch(tokens[i]).
type sketchView struct {
	tokens   []string
	sketches []uint64
}

// cover returns a view over at least tokens, which must extend the list
// every earlier call passed.
func (c *sketchColumn) cover(b sim.Batcher, tokens []string) *sketchView {
	if v := c.view.Load(); v != nil && len(v.tokens) >= len(tokens) {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := &sketchView{tokens: tokens}
	if old := c.view.Load(); old != nil {
		if len(old.tokens) >= len(tokens) {
			return old // another cover got here first
		}
		// append writes only past old's length: its readers never see it
		next.sketches = old.sketches
	}
	for _, tok := range tokens[len(next.sketches):] {
		next.sketches = append(next.sketches, b.Sketch(tok))
	}
	c.view.Store(next)
	return next
}

// kernelBlock is the batch granularity of the kernel scan: enough to
// amortize the per-block interface call, small enough that the candidate
// block stays in cache.
const kernelBlock = 128

// kernelScan is the batched scan loop: the positions Admit lets through
// (every position when sketches is nil), minus the query itself, are
// gathered into blocks and evaluated per SimBatch call. On return buf holds
// exactly the α-matches of the plain scan, in the same ascending order.
func kernelScan(k sim.Kernel, tokens []string, sketches []uint64, q string, alpha float64, buf []Neighbor) []Neighbor {
	var blk struct {
		cands [kernelBlock]string
		sims  [kernelBlock]float64
		ids   [kernelBlock]int32
	}
	n := 0
	flush := func() {
		k.SimBatch(blk.cands[:n], blk.sims[:n])
		for i, s := range blk.sims[:n] {
			if s >= alpha {
				buf = append(buf, Neighbor{Token: blk.cands[i], Sim: s, ID: blk.ids[i]})
			}
		}
		n = 0
	}
	gather := func(vi int) {
		if tokens[vi] == q {
			return
		}
		blk.cands[n], blk.ids[n] = tokens[vi], int32(vi)
		if n++; n == kernelBlock {
			flush()
		}
	}
	if sketches == nil {
		for vi := range tokens {
			gather(vi)
		}
	} else {
		for _, vi := range k.Admit(sketches, alpha, nil) {
			gather(int(vi))
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
	funcScan
}

// NewFuncIndex indexes vocab under fn.
func NewFuncIndex(vocab []string, fn sim.Func) *FuncIndex {
	return &FuncIndex{vocab: vocab, funcScan: funcScan{fn: fn}}
}

// Neighbors implements NeighborSource.
func (f *FuncIndex) Neighbors(q string, alpha float64) []Neighbor {
	return sorted(f.scan(f.vocab, q, alpha, nil))
}

// NeighborCursors implements LazySource.
func (f *FuncIndex) NeighborCursors(qs []string, alpha float64) []NeighborCursor {
	return f.cursors(f.vocab, qs, alpha)
}
