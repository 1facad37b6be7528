package index

import (
	"sync"

	"repro/internal/pqueue"
)

// Tuple is one element of the token stream Ie: query element qᵢ (by index
// into the query slice), a vocabulary token, and their similarity. TokenID
// is the token's interned repository ID when the stream was built with
// the query's IDs (NewStreamMasked; -1 for an identity tuple of a token
// occurring in no set); streams built with NewStream leave identity tuples
// unresolved.
type Tuple struct {
	QIdx    int
	Token   string
	TokenID int32
	Sim     float64
}

// Stream is the token stream Ie of §IV: for each query element it holds its
// descending list of α-neighbors from a NeighborSource, and a priority
// queue of size |Q| merges the per-element lists into one globally
// descending stream of tuples, ordered by similarity, then token, then
// query index. The search does not pull tuples from it — it probes once and
// sorts (core.Engine's openStream) — but the baselines and the benchmark
// harness do, and the search's order is held to this one.
//
// Per the out-of-vocabulary rule of §V, the stream first emits the identity
// tuple (q, q, 1) for every query element — even for elements the index does
// not cover — so identical elements always contribute to the overlap and the
// lower bound of a candidate starts at its vanilla overlap.
//
// Streams are pooled: every constructor draws one whose buffers — the
// cursors and the merge heap — earlier streams grew, and Release hands it
// back.
type Stream struct {
	query   []string
	qids    []int32 // interned ID per query element; nil when unresolved
	elems   []elemCursor
	heap    pqueue.Heap[streamHead]
	pending int // identity tuples not yet emitted
}

// elemCursor is one query element's position in its sorted neighbor list,
// which is empty when the element is not probed.
type elemCursor struct {
	list []Neighbor
	pos  int
}

var streams = sync.Pool{New: func() any { return new(Stream) }}

type streamHead struct {
	qIdx  int
	token string
	id    int32
	sim   float64
}

func headLess(a, b streamHead) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	if a.token != b.token {
		return a.token < b.token
	}
	return a.qIdx < b.qIdx
}

// NewStream probes src once per query element (threshold alpha) and prepares
// the merged stream. The query slice must contain distinct elements.
// Identity tuples carry TokenID -1; callers that consume token IDs use
// NewStreamMasked instead.
func NewStream(query []string, src NeighborSource, alpha float64) *Stream {
	return NewStreamMasked(query, nil, src, alpha, nil)
}

// NewStreamMasked is NewStream with the query elements' interned token IDs
// and a probe mask. qids[i] is the repository token ID of query[i], -1 for a
// token occurring in no set, so every emitted tuple — identity tuples
// included — carries its token ID; a nil qids marks all identity tuples
// unresolved (-1). Query elements with skip[i] set are never probed against
// the index and contribute only their identity tuple — how a segmented
// search treats query elements whose token survives only in deleted sets,
// so results match an engine whose index never saw those sets (DESIGN.md
// §4). A nil skip probes everything.
// Every element is probed once, with Neighbors, which returns its list
// sorted.
func NewStreamMasked(query []string, qids []int32, src NeighborSource, alpha float64, skip []bool) *Stream {
	s := streams.Get().(*Stream)
	s.query, s.qids = query, qids
	s.pending = len(query)
	s.heap = *pqueue.NewHeapFrom(s.heap.Items()[:0], headLess)
	if cap(s.elems) < len(query) {
		s.elems = make([]elemCursor, len(query))
	}
	s.elems = s.elems[:len(query)]
	for i, q := range query {
		var list []Neighbor
		if skip == nil || !skip[i] {
			list = src.Neighbors(q, alpha)
		}
		s.elems[i] = elemCursor{list: list}
		s.refill(i)
	}
	return s
}

// Release hands the stream back to the pool its constructor drew it from,
// for the next stream to reuse its buffers. Every reference they hold to a
// query element or a token is dropped first, so a pooled stream pins no
// request's strings. The stream must not be used afterwards.
func (s *Stream) Release() {
	clear(s.elems)
	s.heap.Reset()
	s.query, s.qids = nil, nil
	streams.Put(s)
}

// refill pushes query element i's next neighbor onto the merge heap.
func (s *Stream) refill(i int) {
	ec := &s.elems[i]
	if ec.pos >= len(ec.list) {
		return
	}
	n := ec.list[ec.pos]
	ec.pos++
	s.heap.Push(streamHead{qIdx: i, token: n.Token, id: n.ID, sim: n.Sim})
}

func (s *Stream) qid(i int) int32 {
	if s.qids == nil {
		return -1
	}
	return s.qids[i]
}

// Next returns the next tuple in descending similarity order. The second
// return value is false when the stream is exhausted.
func (s *Stream) Next() (Tuple, bool) {
	if s.pending > 0 {
		i := len(s.query) - s.pending
		s.pending--
		return Tuple{QIdx: i, Token: s.query[i], TokenID: s.qid(i), Sim: 1}, true
	}
	if s.heap.Len() == 0 {
		return Tuple{}, false
	}
	top := s.heap.Pop()
	// Refill from the popped element's list, keeping the queue at one head
	// per query element (§IV: "we only require to probe I with the query
	// element corresponding to the popped element").
	s.refill(top.qIdx)
	return Tuple{QIdx: top.qIdx, Token: top.token, TokenID: top.id, Sim: top.sim}, true
}
