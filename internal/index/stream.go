package index

import (
	"sync"

	"repro/internal/pqueue"
)

// Tuple is one element of the token stream Ie: query element qᵢ (by index
// into the query slice), a vocabulary token, and their similarity. TokenID
// is the token's interned repository ID when the stream was built with
// NewStreamInterned (-1 for an identity tuple of a token occurring in no
// set); streams built with NewStream leave identity tuples unresolved.
type Tuple struct {
	QIdx    int
	Token   string
	TokenID int32
	Sim     float64
}

// cursorChunk is the number of neighbors the stream pulls from a cursor per
// refill. Small enough that a cut-off search never over-fetches by much,
// large enough to amortize the per-chunk call.
const cursorChunk = 64

// Stream is the token stream Ie of §IV: for each query element it holds a
// descending cursor of α-neighbors over a NeighborSource, and a priority
// queue of size |Q| merges the per-element cursors into one globally
// descending stream of tuples. Sources implementing LazySource are probed
// incrementally — neighbors below the point where the consumer stops are
// never ordered; other sources are fetched eagerly once and drained through
// the same interface.
//
// Per the out-of-vocabulary rule of §V, the stream first emits the identity
// tuple (q, q, 1) for every query element — even for elements the index does
// not cover — so identical elements always contribute to the overlap and the
// lower bound of a candidate starts at its vanilla overlap.
//
// Streams are pooled: every constructor draws one whose buffers — the
// cursors, the lazy probe's neighbor lists, the merge heap — earlier streams
// grew, and Release hands it back, so a search that releases its stream
// allocates none of them once the pool is warm.
type Stream struct {
	query     []string
	qids      []int32 // interned ID per query element; nil when unresolved
	elems     []elemCursor
	heap      pqueue.Heap[streamHead]
	pending   int // identity tuples not yet emitted
	emitted   int
	footprint int64

	// The probe's: the probed elements, at[j] the query index of probe[j]
	// when a mask leaves out some, and the lists the source fills.
	probe []string
	at    []int
	bufs  [][]Neighbor
}

// elemCursor is one query element's position in its neighbor sequence: the
// cursor — its own lazy or eager one, nil when the element is not probed —
// plus the chunk currently being consumed; done marks the cursor exhausted.
type elemCursor struct {
	cur   NeighborCursor
	lazy  lazyScan
	eager eagerCursor
	chunk []Neighbor
	pos   int
	done  bool
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
// NewStreamInterned instead.
func NewStream(query []string, src NeighborSource, alpha float64) *Stream {
	return NewStreamInterned(query, nil, src, alpha)
}

// NewStreamInterned is NewStream with the query elements' interned token IDs
// (qids[i] is the repository token ID of query[i], -1 for a token occurring
// in no set), so every emitted tuple — identity tuples included — carries
// its token ID. A nil qids marks all identity tuples unresolved (-1).
func NewStreamInterned(query []string, qids []int32, src NeighborSource, alpha float64) *Stream {
	return NewStreamMasked(query, qids, src, alpha, nil)
}

// NewStreamMasked is NewStreamInterned with a probe mask: query elements
// with skip[i] set are never probed against the index and contribute only
// their identity tuple — how a segmented search treats query elements whose
// token survives only in deleted sets, so results match an engine whose
// index never saw those sets (DESIGN.md §4). A nil skip probes everything.
//
// All NewStream variants probe eagerly (one full, sorted fetch per element,
// exactly the pre-lazy behavior) — right for consumers that drain the
// stream completely. Cut-off consumers use NewLazyStream.
func NewStreamMasked(query []string, qids []int32, src NeighborSource, alpha float64, skip []bool) *Stream {
	return newStream(query, qids, src, alpha, skip, false)
}

// NewLazyStream is NewStreamMasked preferring the source's incremental
// probe (LazySource) when it has one: neighbors below the point where the
// consumer stops are never ordered or delivered. Sources without an
// incremental probe are adapted transparently.
func NewLazyStream(query []string, qids []int32, src NeighborSource, alpha float64, skip []bool) *Stream {
	return newStream(query, qids, src, alpha, skip, true)
}

func newStream(query []string, qids []int32, src NeighborSource, alpha float64, skip []bool, lazy bool) *Stream {
	s := streams.Get().(*Stream)
	s.query, s.qids = query, qids
	s.pending, s.emitted, s.footprint = len(query), 0, 0
	s.heap = *pqueue.NewHeapFrom(s.heap.Items()[:0], headLess)
	if cap(s.elems) < len(query) {
		// Keep the cursors' storage, which the elements past the old
		// length get when the stream grows.
		s.elems = append(s.elems[:cap(s.elems)], make([]elemCursor, len(query)-cap(s.elems))...)
	}
	s.elems = s.elems[:len(query)]
	// The probed elements: all of them, or those the mask leaves, at[j] being
	// the query index of the j-th.
	probe, at := query, s.at[:0]
	if skip != nil {
		probe = s.probe[:0]
		for i, q := range query {
			if !skip[i] {
				probe, at = append(probe, q), append(at, i)
			}
		}
		s.probe, s.at = probe, at
	}
	elem := func(j int) *elemCursor {
		if skip != nil {
			return &s.elems[at[j]]
		}
		return &s.elems[j]
	}
	if ls, ok := src.(LazySource); ok && lazy {
		bufs := s.bufs[:0]
		for j := range probe {
			bufs = append(bufs, elem(j).lazy.h.Items()[:0])
		}
		ls.ScanNeighbors(probe, alpha, bufs)
		for j := range probe {
			ec := elem(j)
			ec.lazy.reset(bufs[j])
			ec.cur = &ec.lazy
		}
		clear(bufs) // the cursors own the lists now
		s.bufs = bufs
	} else {
		for j, q := range probe {
			ec := elem(j)
			ec.eager = eagerCursor{list: src.Neighbors(q, alpha)}
			ec.cur = &ec.eager
		}
	}
	for i := range s.elems {
		if s.elems[i].cur != nil {
			s.refill(i)
		}
	}
	return s
}

// Release hands the stream back to the pool its constructor drew it from,
// for the next stream to reuse its buffers. Every reference they hold to a
// query element or a token is dropped first, so a pooled stream pins no
// request's strings. The stream must not be used afterwards.
func (s *Stream) Release() {
	for i := range s.elems {
		ec := &s.elems[i]
		ec.lazy.release()
		*ec = elemCursor{lazy: ec.lazy}
	}
	s.heap.Reset()
	clear(s.probe)
	s.query, s.qids = nil, nil
	streams.Put(s)
}

// refill pushes query element i's next neighbor onto the merge heap,
// pulling the next chunk from its cursor when the current one is consumed.
func (s *Stream) refill(i int) {
	ec := &s.elems[i]
	if ec.pos >= len(ec.chunk) {
		if ec.cur == nil || ec.done {
			return
		}
		ec.chunk = ec.cur.Next(cursorChunk)
		ec.pos = 0
		if len(ec.chunk) == 0 {
			ec.done = true
			return
		}
		for _, n := range ec.chunk {
			s.footprint += int64(len(n.Token)) + 16 + 8 + 4
		}
	}
	n := ec.chunk[ec.pos]
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
		s.emitted++
		return Tuple{QIdx: i, Token: s.query[i], TokenID: s.qid(i), Sim: 1}, true
	}
	if s.heap.Len() == 0 {
		return Tuple{}, false
	}
	top := s.heap.Pop()
	// Refill from the popped element's cursor, keeping the queue at one head
	// per query element (§IV: "we only require to probe I with the query
	// element corresponding to the popped element").
	s.refill(top.qIdx)
	s.emitted++
	return Tuple{QIdx: top.qIdx, Token: top.token, TokenID: top.id, Sim: top.sim}, true
}

// NextBlock appends up to max tuples to dst — the chunked pull a cut-off
// consumer uses instead of draining tuple by tuple. The bool reports
// whether the stream may still hold more tuples; call Level for the bound
// on everything not yet emitted.
func (s *Stream) NextBlock(dst []Tuple, max int) ([]Tuple, bool) {
	for n := 0; n < max; n++ {
		tup, ok := s.Next()
		if !ok {
			return dst, false
		}
		dst = append(dst, tup)
	}
	return dst, s.pending > 0 || s.heap.Len() > 0
}

// Level returns an upper bound on the similarity of every tuple not yet
// emitted: the merge heap's current top (cursors deliver descending, so no
// unseen neighbor can beat a current head), 1 while identity tuples are
// pending, and 0 once the stream is exhausted. This is the level s of the
// paper's refinement termination condition.
func (s *Stream) Level() float64 {
	if s.pending > 0 {
		return 1
	}
	if s.heap.Len() == 0 {
		return 0
	}
	return s.heap.Peek().sim
}

// PeekRest emits every not-yet-emitted tuple in ARBITRARY order and leaves
// the stream as it was, so Next and NextBlock still deliver every one of
// them: pending identity tuples, the merge heap's current heads, each
// element's partially consumed chunk, and each cursor's unordered
// remainder. A search reads the whole stream this way before its first
// block, to build its edge cache and bound every set by the maxima the
// stream will bring (DESIGN.md §2, §10), without paying the merge heap's
// and cursors' ordering costs for tuples refinement may never see. It
// returns the number of α-neighbors it emitted.
func (s *Stream) PeekRest(emit func(Tuple)) (neighbors int) {
	for i := len(s.query) - s.pending; i < len(s.query); i++ {
		emit(Tuple{QIdx: i, Token: s.query[i], TokenID: s.qid(i), Sim: 1})
	}
	for _, h := range s.heap.Items() {
		neighbors++
		emit(Tuple{QIdx: h.qIdx, Token: h.token, TokenID: h.id, Sim: h.sim})
	}
	for i := range s.elems {
		ec := &s.elems[i]
		for _, nb := range ec.chunk[ec.pos:] {
			neighbors++
			emit(Tuple{QIdx: i, Token: nb.Token, TokenID: nb.ID, Sim: nb.Sim})
		}
		if ec.cur == nil || ec.done {
			continue
		}
		for _, nb := range ec.cur.Peek() {
			neighbors++
			emit(Tuple{QIdx: i, Token: nb.Token, TokenID: nb.ID, Sim: nb.Sim})
		}
	}
	return neighbors
}

// Emitted returns the number of tuples emitted so far.
func (s *Stream) Emitted() int { return s.emitted }

// FootprintBytes estimates the stream's in-memory size for the memory
// experiments: neighbors actually delivered by the cursors (plus, for eager
// sources, nothing extra — their full fetch is delivered chunk by chunk but
// retained by the source, not the stream).
func (s *Stream) FootprintBytes() int64 {
	return s.footprint + int64(len(s.query))*(8+24)
}
