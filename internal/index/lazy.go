package index

import (
	"repro/internal/pqueue"
)

// NeighborCursor is the incremental form of a NeighborSource probe: it
// yields one query element's α-neighbors in the same globally descending
// (similarity, then token) order Neighbors uses, but in caller-sized chunks,
// so a consumer that stops early never pays for ordering the tail.
type NeighborCursor interface {
	// Next returns the next at-most-max neighbors in descending order. An
	// empty result means the cursor is exhausted. The returned slice is
	// only valid until the next call.
	Next(max int) []Neighbor
	// Peek returns every remaining neighbor in ARBITRARY order and leaves
	// the cursor as it was — O(remaining) with no ordering work, for the
	// search's one read of the whole stream before its first block. The
	// returned slice is only valid until the next call on the cursor.
	Peek() []Neighbor
}

// LazySource is an optional NeighborSource extension: a probe that hands
// over every α-neighbor unordered, so the stream orders them only as a
// cut-off search consumes them (lazyScan). Sources without it are adapted
// by eagerCursor — the stream works either way, the lazy probe just avoids
// the full per-probe sort.
type LazySource interface {
	// ScanNeighbors probes all of a search's query elements at once: it
	// appends to bufs[i] every α-neighbor of qs[i] — what Neighbors(qs[i],
	// alpha) returns — in arbitrary order. bufs has len(qs) elements; the
	// caller owns their storage and reuses it from search to search. A
	// source that scans shares the pass between the elements.
	ScanNeighbors(qs []string, alpha float64, bufs [][]Neighbor)
}

// CompleteScorer marks a NeighborSource whose retrieval is exhaustive with
// respect to a pure pairwise similarity: Neighbors(q, α) returns every
// vocabulary token t ≠ q with PairSim(q, t) ≥ α, and PairSim(q, t) is
// exactly the similarity those neighbors carry, so a verification matrix
// built from PairSim is the one the search built from the stream.
// Approximate sources (IVF, LSH, HNSW) must not implement it: their
// retrieval can miss neighbors, so PairSim would report edges the search
// never saw.
type CompleteScorer interface {
	// PairSim scores two tokens exactly as retrieval would. Tokens the
	// source cannot score (e.g. no embedding vector) yield 0.
	PairSim(a, b string) float64
}

// lazyScan is the NeighborCursor over a LazySource's probe: the scan still
// touches every vocabulary token (that is what makes those sources exact),
// but instead of fully sorting the α-matches it heapifies them once — O(n)
// — and pays O(log n) per neighbor actually delivered. A cut-off search that
// consumes m of n matches does O(n + m·log n) work instead of O(n·log n).
// Its heap and its chunk are a pooled Stream's: reset hands it the next
// search's matches, release drops what it holds.
type lazyScan struct {
	h   pqueue.Heap[Neighbor]
	out []Neighbor
}

func neighborLess(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Token < b.Token
}

// reset takes ownership of cands (unsorted α-matches) and serves them
// descending.
func (c *lazyScan) reset(cands []Neighbor) {
	c.h = *pqueue.NewHeapFrom(cands, neighborLess)
}

// release drops every neighbor the cursor still holds, keeping the storage:
// popped heap slots are zeroed as they are popped, and out is cleared
// before each refill, so afterwards neither holds a token.
func (c *lazyScan) release() {
	c.h.Reset()
	clear(c.out)
	c.out = c.out[:0]
}

func (c *lazyScan) Next(max int) []Neighbor {
	// The chunk handed out before has been consumed: clear it, so a pooled
	// cursor holds no token past its last chunk.
	clear(c.out)
	if max <= 0 || c.h.Len() == 0 {
		c.out = c.out[:0]
		return nil
	}
	if n := min(max, c.h.Len()); cap(c.out) < n {
		c.out = make([]Neighbor, 0, n)
	}
	c.out = c.out[:0]
	for len(c.out) < max && c.h.Len() > 0 {
		c.out = append(c.out, c.h.Pop())
	}
	return c.out
}

// Peek reads the heap's backing slice in place — the whole point of the
// lazy scan: neighbors nobody needs in order are never ordered.
func (c *lazyScan) Peek() []Neighbor { return c.h.Items() }

// eagerCursor adapts a fully materialized (already sorted) neighbor list to
// the cursor interface — the fallback that keeps every NeighborSource
// working with the chunked stream.
type eagerCursor struct {
	list []Neighbor
	at   int
}

func (c *eagerCursor) Next(max int) []Neighbor {
	if c.at >= len(c.list) || max <= 0 {
		return nil
	}
	end := c.at + max
	if end > len(c.list) {
		end = len(c.list)
	}
	out := c.list[c.at:end]
	c.at = end
	return out
}

// Peek returns the undelivered tail without delivering it.
func (c *eagerCursor) Peek() []Neighbor { return c.list[c.at:] }

// ScorerOf returns src's exhaustive pair scorer, looking through the Cached
// memoization layer (a memoized exact source is still exhaustive; a wrapped
// approximate one still is not).
func ScorerOf(src NeighborSource) (CompleteScorer, bool) {
	if cs, ok := src.(CompleteScorer); ok {
		return cs, true
	}
	if c, ok := src.(*Cached); ok {
		return ScorerOf(c.src)
	}
	return nil, false
}
