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
	// Rest returns every remaining neighbor in ARBITRARY order and
	// exhausts the cursor — O(remaining) with no ordering work, for
	// consumers that no longer need descending delivery (the cut-off
	// search's edge-cache completion). The returned slice is only valid
	// until the cursor is dropped.
	Rest() []Neighbor
	// Retrieved reports how many neighbors the source has delivered so far
	// — the lazy counterpart of len(Neighbors(q, alpha)). Cursors over an
	// up-front fetch report the full fetch immediately.
	Retrieved() int
}

// LazySource is an optional NeighborSource extension: a top-down,
// incremental probe that can stop ordering (and, for index structures that
// support it, stop computing) neighbors below the level a cut-off search
// still needs. Sources without it are adapted by eagerCursor — the stream
// works either way, the lazy probe just avoids the full per-probe sort.
type LazySource interface {
	// NeighborCursors probes all of a search's query elements at once:
	// cursor i is qs[i]'s. A source that scans shares the pass between them.
	NeighborCursors(qs []string, alpha float64) []NeighborCursor
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

// lazyScan is the NeighborCursor shared by the brute-force scan sources:
// the scan still touches every vocabulary token (that is what makes those
// sources exact), but instead of fully sorting the α-matches it heapifies
// them once — O(n) — and pays O(log n) per neighbor actually delivered.
// A cut-off search that consumes m of n matches does O(n + m·log n) work
// instead of O(n·log n).
type lazyScan struct {
	h         *pqueue.Heap[Neighbor]
	out       []Neighbor
	delivered int
}

func neighborLess(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Token < b.Token
}

// newLazyScan takes ownership of cands (unsorted α-matches) and serves them
// descending.
func newLazyScan(cands []Neighbor) *lazyScan {
	return &lazyScan{h: pqueue.NewHeapFrom(cands, neighborLess)}
}

func (c *lazyScan) Next(max int) []Neighbor {
	if max <= 0 || c.h.Len() == 0 {
		return nil
	}
	if n := min(max, c.h.Len()); cap(c.out) < n {
		c.out = make([]Neighbor, 0, n)
	}
	c.out = c.out[:0]
	for len(c.out) < max && c.h.Len() > 0 {
		c.out = append(c.out, c.h.Pop())
	}
	c.delivered += len(c.out)
	return c.out
}

func (c *lazyScan) Retrieved() int { return c.delivered }

// Rest hands out the heap's backing slice as-is — the whole point of the
// lazy scan: neighbors nobody needs in order are never ordered. The heap
// is replaced by an empty one, so the returned slice stays valid.
func (c *lazyScan) Rest() []Neighbor {
	rest := c.h.Items()
	c.delivered += len(rest)
	c.h = pqueue.NewHeap[Neighbor](neighborLess)
	return rest
}

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

// Retrieved reports the full up-front fetch: the source already did the
// work for every neighbor, delivered or not.
func (c *eagerCursor) Retrieved() int { return len(c.list) }

// Rest returns the undelivered tail of the fetched list.
func (c *eagerCursor) Rest() []Neighbor {
	rest := c.list[c.at:]
	c.at = len(c.list)
	return rest
}

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

// cursorsFor probes src once per element of qs: through its incremental
// probe when lazy is set and it has one, by a full sorted fetch otherwise.
func cursorsFor(src NeighborSource, qs []string, alpha float64, lazy bool) []NeighborCursor {
	if ls, ok := src.(LazySource); ok && lazy {
		return ls.NeighborCursors(qs, alpha)
	}
	out := make([]NeighborCursor, len(qs))
	for i, q := range qs {
		out[i] = &eagerCursor{list: src.Neighbors(q, alpha)}
	}
	return out
}
