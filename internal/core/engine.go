package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
)

// Engine is a Koios search engine over a fixed repository and similarity
// index. Index construction happens once in NewEngine (the paper likewise
// excludes index construction from query response time, §VIII-A3); Search
// may then be called for any number of queries and is safe for concurrent
// use by multiple goroutines.
//
// Everything downstream of NewEngine runs on interned int32 token IDs
// (DESIGN.md §3): postings are CSR arenas, the per-query edge cache is a
// slice indexed by token ID, and refinement state is a dense arena indexed by
// set ID — the refinement inner loop performs no string hashing and no map
// lookups.
type Engine struct {
	repo *sets.Repository
	src  index.NeighborSource
	opts Options
	// parts are the partitions refined in parallel (§VI): contiguous ranges
	// of set IDs, one partRefiner each.
	parts []partition
	// mem holds the postings of a memtable engine (Growing.Engine), whose
	// one partition has no CSR.
	mem index.MemView

	vocabN int
	// card is each set's distinct-element count, indexed by set ID.
	card []int32
	// cOff holds the prefix word offsets of each set's matched-token bitset
	// inside the engine's share of the token-mask arena: set sid owns words
	// [cOff[sid], cOff[sid+1]). It is one longer than the repository.
	cOff []int32
	// scratch pools the per-query buffers whose size follows the collection
	// — the vocabulary-sized first-arrival bitset and edge-cache offsets,
	// and the set-indexed refinement arena — so per-query allocation scales
	// with the stream, not with the vocabulary or the repository. A search
	// over a Group draws one from its lead engine. The engines a Growing hands
	// out share one pool: they differ by a row, and getScratch sizes whatever
	// it is handed.
	scratch *sync.Pool
	// solo is the engine alone as a Group, searched under the options the
	// engine was built with.
	solo *Group
	// verifyHook, when set (tests only), observes every verification: the
	// α-graph, the live bound (nil when early termination is off) and the
	// verdict.
	verifyHook func(rows, cols int, edges []matching.Edge, bound func() float64, res matching.Result)
	// survivorHook, when set on a group's lead engine (tests only), observes
	// what refinement hands to post-processing, the stream-wide set bounds by
	// group-wide set ID and the scores the θlb seed kept.
	survivorHook func(survivors []survivor, bound []float64, seeds []seedScore)
	// refinerHook, when set (tests only), observes partition p's refiner
	// after its drain, as the search merges its counters.
	refinerHook func(p int, r *partRefiner)
}

// queryScratch holds the buffers one Search needs and the next can reuse:
// the collection-sized ones, and the working memory of the query's
// deduplication, the stream, the partition refiners (one each),
// post-processing and verification (one per worker), which grows to what
// the largest search so far needed. Together with the probe's and the
// source's pools it is everything a search allocates but its answer
// (DESIGN.md §3). putScratch hands it back holding no string.
type queryScratch struct {
	seen    []uint64
	offsets []int32
	// query and qids are the query's distinct elements and their token IDs
	// (dedup), elems dedup's room to sort them in, oov the elements outside
	// the vocabulary seen so far, and skip the probe mask.
	query []string
	qids  []int32
	elems []queryElem
	oov   map[string]struct{}
	skip  []bool
	// base, theta and chunks are the search's group-wide set-ID offsets,
	// θlb, and partition refiners.
	base   []int
	theta  atomicMax
	chunks []chunk
	// tuples holds the stream, first as the probe reads it and then in
	// the walk's order, keys the sort keys that order it, and cache the
	// edge cache built from it (Engine.openStream).
	tuples []streamTuple
	keys   []uint64
	cache  edgeCache
	// seeds and seedUsed are the θlb seed's sets and greedy query mask, and
	// seedScores the exact scores it solved, by group-wide set ID.
	seeds      []seedSet
	seedUsed   []uint64
	seedScores []seedScore
	refine     refineArena
	refiners   []refinerScratch
	post       postScratch
	verify     []verifyScratch
}

func (e *Engine) getScratch() *queryScratch {
	s, ok := e.scratch.Get().(*queryScratch)
	if !ok {
		s = &queryScratch{}
	}
	s.seen = zeroed(s.seen, (e.vocabN+63)/64)
	s.offsets = zeroed(s.offsets, e.vocabN)
	return s
}

// putScratch hands s back to e's pool once a search is done with it,
// dropping what s holds of the search: the request's strings, and the
// refiners, which point into the engines searched.
func (e *Engine) putScratch(s *queryScratch) {
	clear(s.query)
	clear(s.chunks)
	s.post.g, s.post.base = nil, nil
	for i := range s.refiners {
		s.refiners[i].r = partRefiner{}
	}
	e.scratch.Put(s)
}

// dedup sets s.query to the distinct elements of query in ascending order
// and s.qids to their token IDs in repo (-1 for one in no set), and returns
// both. The order makes a query element's index, and with it every tie the
// stream, the greedy bounds and the verifier's rows break by it, a function
// of the query as a set: a permuted query searches exactly as the query
// (DESIGN.md §1). Every element's ID is looked up in one batch, under one
// read of the dictionary, into s.qids, which then keeps the distinct ones
// in place. Elements in the vocabulary are told apart by their IDs,
// through s.seen, which is zero again on return; only the others are
// hashed again.
func (s *queryScratch) dedup(query []string, repo *sets.Repository) ([]string, []int32) {
	all := repo.AppendTokenIDs(s.qids[:0], query)
	q, ids, seen := s.query[:0], all[:0], s.seen
	for i, tok := range query {
		// ids is a prefix of all no longer than i: all[i] is still unread.
		id := all[i]
		if id >= 0 {
			w, bit := id>>6, uint64(1)<<(uint(id)&63)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
		} else {
			if _, dup := s.oov[tok]; dup {
				continue
			}
			if s.oov == nil {
				s.oov = make(map[string]struct{})
			}
			s.oov[tok] = struct{}{}
		}
		q, ids = append(q, tok), append(ids, id)
	}
	for _, id := range ids {
		if id >= 0 {
			seen[id>>6] &^= 1 << (uint(id) & 63)
		}
	}
	clear(s.oov)
	elems := sized(s.elems, len(q))
	for i := range q {
		elems[i] = queryElem{q[i], ids[i]}
	}
	slices.SortFunc(elems, func(a, b queryElem) int { return strings.Compare(a.tok, b.tok) })
	for i, el := range elems {
		q[i], ids[i] = el.tok, el.id
	}
	clear(elems)
	s.query, s.qids, s.elems = q, ids, elems
	return q, ids
}

// queryElem is a query element and its token ID, as dedup sorts them.
type queryElem struct {
	tok string
	id  int32
}

// sized returns n elements of unspecified content, in buf's backing array
// when it is large enough. A buffer that has to grow gets a quarter more
// room than asked for, so one that follows a growing collection — a
// memtable adds a set per insert — moves rarely; a first allocation is
// exact.
func sized[T any](buf []T, n int) []T {
	switch {
	case cap(buf) >= n:
		return buf[:n]
	case cap(buf) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

// regrown returns n elements in which those buf held keep their content —
// the scratch they own — and the rest are zero.
func regrown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

// zeroed is sized with every element zero.
func zeroed[T any](buf []T, n int) []T {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// partition is one range of the engine's set IDs, refined by its own
// partRefiner over its own postings.
type partition struct {
	// lo and hi bound the partition's set IDs: [lo, hi).
	lo, hi int32
	// inv is the partition's CSR inverted index; nil on a memtable engine,
	// whose postings are Engine.mem's chains.
	inv *index.Inverted
}

// refineArena is one search's set-indexed refinement state: per set of every
// engine searched, an arenaShare's tables. carve hands it out engine by
// engine, and an engine's partition refiners share its share, each writing
// the indices of its own sets. Its size follows the collection searched and
// the query's mask words.
//
// reset zeroes only what is read before it is written: the status bytes,
// and the bounds and term counts addBounds adds to. A set's candState and
// masks are written when the walk admits it (partRefiner.consume).
type refineArena struct {
	arenaShare
	// sets and words count what carve has handed out.
	sets, words int
}

// arenaShare is the part of a refineArena a refiner reads, indexed by set
// ID: a status byte and a candState, the stream-wide bound and the count of
// its terms, and one qWord per 64 query elements (the matched and the
// arrived ones, a mask word each), plus the token masks.
type arenaShare struct {
	flags  []uint8
	states []candState
	// bound is a set's stream-wide bound and terms the number of maxima in
	// it (DESIGN.md §2); a set refinement has pruned holds settledBound.
	bound []float64
	terms []int32
	// Set sid's query masks are qBits[sid·qWords : (sid+1)·qWords] and its
	// token mask cBits[cOff[sid] : cOff[sid+1]] (Engine.cOff).
	qBits  []qWord
	cBits  []uint64
	qWords int
}

// reset readies the arena for engines holding sets sets in total with
// qWords query-mask words each, whose token masks take words words in total.
func (a *refineArena) reset(sets, qWords, words int) {
	a.flags = zeroed(a.flags, sets)
	a.states = sized(a.states, sets)
	a.bound = zeroed(a.bound, sets)
	a.terms = zeroed(a.terms, sets)
	// The query masks have room for as many sets as the states: a wider
	// query regrows them by its words alone, a grown collection as sized
	// does.
	if n := sets * qWords; cap(a.qBits) < n {
		a.qBits = make([]qWord, n, cap(a.states)*qWords)
	}
	a.qBits = a.qBits[:sets*qWords]
	a.cBits = sized(a.cBits, words)
	a.qWords = qWords
	a.sets, a.words = 0, 0
}

// carve returns engine e's share of the arena, the next one, indexed by e's
// set IDs.
func (a *refineArena) carve(e *Engine) arenaShare {
	lo, hi := a.sets, a.sets+len(e.card)
	wlo, whi := a.words, a.words+e.cWords()
	a.sets, a.words = hi, whi
	qlo, qhi := lo*a.qWords, hi*a.qWords
	return arenaShare{
		flags: a.flags[lo:hi:hi], states: a.states[lo:hi:hi],
		bound: a.bound[lo:hi:hi], terms: a.terms[lo:hi:hi],
		qBits: a.qBits[qlo:qhi:qhi], cBits: a.cBits[wlo:whi:whi], qWords: a.qWords,
	}
}

// NewEngine splits the repository's set IDs into Options.Partitions ranges
// of near-equal size, at most one per set and at least one, and builds
// each range's CSR inverted index and the mask offsets.
func NewEngine(repo *sets.Repository, src index.NeighborSource, opts Options) *Engine {
	opts = opts.withDefaults()
	n := repo.Len()
	e := &Engine{
		repo: repo, src: src, opts: opts, vocabN: repo.VocabSize(),
		card: make([]int32, n), cOff: make([]int32, n+1), scratch: new(sync.Pool),
	}
	e.solo = &Group{Engines: []*Engine{e}, Opts: opts}
	for sid := range n {
		e.card[sid] = int32(len(repo.Set(sid).ElemIDs))
		e.cOff[sid+1] = e.cOff[sid] + (e.card[sid]+63)/64
	}
	np := max(min(opts.Partitions, n), 1)
	e.parts = make([]partition, np)
	for p := range e.parts {
		lo, hi := p*n/np, (p+1)*n/np
		e.parts[p] = partition{lo: int32(lo), hi: int32(hi), inv: index.NewInvertedSubset(repo, lo, hi)}
	}
	return e
}

// cWords is the length, in words, of the engine's token-mask arena.
func (e *Engine) cWords() int { return int(e.cOff[len(e.cOff)-1]) }

// Repo returns the repository the engine searches.
func (e *Engine) Repo() *sets.Repository { return e.repo }

// streamTuple is one tuple of the search's token stream. first marks the
// global first arrival of the token, i.e. the tuple carrying the token's
// maximum similarity to any query element.
type streamTuple struct {
	tokenID int32
	qIdx    int32
	sim     float64
	first   bool
}

// qEdge is a cached bipartite edge endpoint: query element index and
// α-thresholded similarity. The edge cache reuses every similarity computed
// during refinement for the verification matrices (§VIII-A3: "we cache the
// similarity of returned vectors ... for reuse during the initialization of
// the similarity matrix used in graph matching").
type qEdge struct {
	qIdx int32
	sim  float64
}

// edgeCache is the per-query edge cache in CSR layout, indexed by interned
// token ID: token t's edges occupy arena[offsets[t-1]:offsets[t]] (0-based
// for t = 0). Built
// from the search's one read of the whole stream (Engine.openStream) into
// its pooled scratch — no per-token slices, no string keys — so it holds
// every α-edge the source retrieved.
type edgeCache struct {
	offsets []int32
	arena   []qEdge
}

// edges returns the α-edges of a token ID. Every repository token ID is a
// valid index (set elements define the vocabulary).
func (c *edgeCache) edges(tid int32) []qEdge {
	lo := int32(0)
	if tid > 0 {
		lo = c.offsets[tid-1]
	}
	return c.arena[lo:c.offsets[tid]]
}

// Search runs the top-k semantic overlap search for query and returns the
// result sets in descending score order together with filter statistics.
func (e *Engine) Search(query []string) ([]Result, Stats) {
	results, stats, _ := e.SearchContext(context.Background(), query)
	return results, stats
}

// SearchContext is Search observing ctx: the refinement and post-processing
// loops poll for cancellation and the search returns ctx's error (with no
// results and partial statistics) once canceled, so abandoned queries stop
// burning CPU. The search itself runs over the engine as a single-segment
// Group, whose group-wide set IDs are the engine's own; multi-segment
// collections build the Group themselves.
func (e *Engine) SearchContext(ctx context.Context, query []string) ([]Result, Stats, error) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	results, stats, err := e.solo.search(ctx, query, e, sc)
	if err != nil {
		return nil, stats, err
	}
	out := make([]Result, len(results))
	copy(out, results)
	return out, stats, nil
}

// liveID resolves a stream tuple's token ID against the engine's vocabulary
// and the live-token bitset live (nil on a static engine): -1 for a token
// that occurs in no live set.
func (e *Engine) liveID(id int32, live []uint64) int32 {
	if int(id) >= e.vocabN {
		// A source built over a superset of the repository vocabulary
		// (e.g. a shared discovery source) annotates IDs past the
		// dictionary; such tokens occur in no set, so they are
		// out-of-vocabulary here.
		return -1
	}
	if id >= 0 && live != nil && live[id>>6]&(1<<(uint(id)&63)) == 0 {
		// The token survives only in deleted sets: out of vocabulary,
		// exactly as if the index had been rebuilt without them.
		return -1
	}
	return id
}

// openStream reads the search's whole token stream and returns it in the
// order refinement walks it, with the edge cache built from it and the
// number of α-neighbors the source retrieved. It probes the source once,
// for every query element skip leaves (index.NewProbe), and reads the edges
// unordered: the identity edge of each query element — the element's own
// token, similarity 1 — then each element's neighbors. Tokens resolve
// against the engine's vocabulary and the live-token bitset live
// (Engine.liveID); an edge of a token in no live set reaches no set and is
// dropped. From the rest it builds the cache — count each token's edges in
// sc.offsets, prefix-sum the counts into fill cursors, fill the arena, and
// let the cursors land on the end offsets the accessor expects — and then
// sorts them once into index.Stream's order: the identity tuples by query
// index, then the others by descending similarity, ascending token string
// and ascending query index (sortStream). first marks each token's first
// tuple in that order, through sc.seen. What it returns aliases sc.
func (e *Engine) openStream(query []string, qids []int32, skip []bool, alpha float64, live []uint64, sc *queryScratch) ([]streamTuple, *edgeCache, int) {
	probe := index.NewProbe(query, e.src, alpha, skip)
	defer probe.Release()
	offsets, tuples := sc.offsets, sc.tuples[:0]
	add := func(id int32, qIdx int, sim float64) {
		offsets[id]++
		tuples = append(tuples, streamTuple{tokenID: id, qIdx: int32(qIdx), sim: sim})
	}
	for i, id := range qids {
		if id = e.liveID(id, live); id >= 0 {
			add(id, i, 1)
		}
	}
	identities, retrieved := len(tuples), 0
	for i := range query {
		neighbors := probe.Neighbors(i)
		retrieved += len(neighbors)
		for _, nb := range neighbors {
			if id := e.liveID(nb.ID, live); id >= 0 {
				add(id, i, nb.Sim)
			}
		}
	}

	total := int32(0)
	for t, n := range offsets {
		offsets[t] = total
		total += n
	}
	arena := sized(sc.cache.arena, int(total))
	for _, tup := range tuples {
		at := offsets[tup.tokenID]
		arena[at] = qEdge{qIdx: tup.qIdx, sim: tup.sim}
		offsets[tup.tokenID] = at + 1
	}
	sc.cache = edgeCache{offsets: offsets, arena: arena}

	sc.keys = sortStream(tuples[identities:], e.repo.Vocabulary(), sc.keys)
	seen := sc.seen
	for i := range tuples {
		id := tuples[i].tokenID
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		tuples[i].first = seen[w]&bit == 0
		seen[w] |= bit
	}
	sc.tuples = tuples
	return tuples, &sc.cache, retrieved
}

// sortStream sorts tuples — similarities neither negative nor NaN — by
// descending similarity, ascending token string and ascending query index,
// with keys as scratch, and returns keys. The sort runs on integers: tuple
// i's key is ^Float64bits(sim) with its low ⌈log₂ n⌉ bits replaced by i, so
// ascending keys are descending similarities, and the index the key carries
// says which tuple it stands for. The permutation is applied in place, one
// cycle at a time. Tuples whose keys agree above the index bits — equal
// similarities, or ones that differ only there — are then re-sorted with
// the full comparison, so token strings are compared only between tuples
// of equal similarity, as the comparison alone would.
func sortStream(tuples []streamTuple, vocab []string, keys []uint64) []uint64 {
	n := len(tuples)
	low := uint64(1)<<bits.Len(uint(max(n-1, 0))) - 1
	keys = sized(keys, n)
	for i, t := range tuples {
		k := ^math.Float64bits(t.sim)
		if t.sim == 0 {
			k = ^uint64(0) // −0 as +0: the comparison tells them not apart
		}
		keys[i] = k&^low | uint64(i)
	}
	slices.Sort(keys)
	// Position i takes tuple keys[i]&low. A placed position's key gets its
	// own index, which also marks the fixed points done.
	for i := range keys {
		if int(keys[i]&low) == i {
			continue
		}
		t, j := tuples[i], i
		for {
			from := int(keys[j] & low)
			keys[j] = keys[j]&^low | uint64(j)
			if from == i {
				tuples[j] = t
				break
			}
			tuples[j], j = tuples[from], from
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j]&^low == keys[i]&^low {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(tuples[i:j], func(a, b streamTuple) int {
				if c := cmp.Compare(b.sim, a.sim); c != 0 {
					return c
				}
				if a.tokenID != b.tokenID {
					return strings.Compare(vocab[a.tokenID], vocab[b.tokenID])
				}
				return cmp.Compare(a.qIdx, b.qIdx)
			})
		}
		i = j
	}
	return keys
}
