package core

import (
	"context"
	"sort"
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
// slice indexed by token ID, and refinement state is a dense arena over each
// partition's sets — the refinement inner loop performs no string hashing
// and no map lookups.
type Engine struct {
	repo  *sets.Repository
	src   index.NeighborSource
	opts  Options
	parts [][]int
	// invs holds one CSR inverted index per partition. A memtable engine
	// (Growing.Engine) has one partition and no CSR: its entry is nil and the
	// postings are mem's chains.
	invs []*index.Inverted
	mem  index.MemView

	vocabN int
	// card is each set's distinct-element count, indexed by set ID.
	card []int32
	// localOf maps a set ID to its index within its (unique) partition, so
	// refinement can address the dense candidate-state arena directly from a
	// posting entry.
	localOf []int32
	// cOffs holds, per partition, the prefix word offsets of each
	// candidate's matched-token bitset inside the partition's shared bit
	// arena: candidate L owns words [cOffs[p][L], cOffs[p][L+1]).
	cOffs [][]int32
	// maxCard is the largest set cardinality per partition, which bounds
	// the iUB bucket index space min(|Q|,|C|).
	maxCard []int32
	// cardOrder holds, per partition, the partition-local candidate indices
	// sorted by descending cardinality — the lazy cut-off walks it to bound
	// the largest still-unseen set (DESIGN.md §10).
	cardOrder [][]int32
	// cWords is the total length, in words, of the partitions' token-mask
	// arenas: cOffs[p][len(parts[p])] summed over p.
	cWords int
	// scratch pools the per-query buffers whose size follows the collection
	// — the vocabulary-sized first-arrival bitset and edge-cache offsets,
	// and the set-indexed refinement arena — so per-query allocation scales
	// with the stream, not with the vocabulary or the repository. A search
	// over a Group draws one from its lead engine. The engines a Growing hands
	// out share one pool: they differ by a row, and getScratch sizes whatever
	// it is handed.
	scratch *sync.Pool
	// verifyHook, when set (tests only), observes every verification: the
	// α-graph, the live bound (nil when early termination is off) and the
	// verdict.
	verifyHook func(rows, cols int, edges []matching.Edge, bound func() float64, res matching.Result)
	// survivorHook, when set on a group's lead engine (tests only), observes
	// what refinement hands to post-processing, how many comparisons of the
	// search's cut replay had to read token strings, and the stream-wide set
	// bounds by group-wide set ID.
	survivorHook func(survivors []survivor, replayTies int, bound []float64)
}

// queryScratch holds the buffers one Search needs and the next can reuse:
// the collection-sized ones, and the working memory of the pump, the
// partition refiners (one each: their walk and their cut replay),
// post-processing and verification (one per worker), which grows to what the
// largest search so far needed.
type queryScratch struct {
	seen    []uint64
	offsets []int32
	// maxima is the stream-wide bound pass's list of streamed tokens.
	maxima   []tokenMax
	refine   refineArena
	raw      []index.Tuple
	refiners []refinerScratch
	post     postScratch
	verify   []verifyScratch
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

// sized returns n elements of unspecified content, in buf's backing array
// when it is large enough.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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

// refineArena is one search's candidate-indexed refinement state: per set
// of every partition searched, a candState, the iubBuckets' filed score,
// the stream-wide bound and the count of its terms, and one qWord per 64
// query elements — the matched and the arrived query elements, two mask
// words each — plus the token masks. carve hands it out partition by
// partition. Its size follows the collection searched and the query's mask
// words.
type refineArena struct {
	states []candState
	score  []float64
	bound  []float64
	terms  []int32
	qBits  []qWord
	cBits  []uint64
	// sets and words count what carve has handed out.
	sets, words int
}

// reset readies the arena for partitions holding sets sets in total with
// qWords query-mask words each, whose token masks take words words in total.
func (a *refineArena) reset(sets, qWords, words int) {
	a.states = zeroed(a.states, sets)
	a.score = sized(a.score, sets) // the buckets write before they read
	a.bound = zeroed(a.bound, sets)
	a.terms = zeroed(a.terms, sets)
	a.qBits = zeroed(a.qBits, sets*qWords)
	a.cBits = zeroed(a.cBits, words)
	a.sets, a.words = 0, 0
}

// carve points r at the next partition's share: nCand candidates with
// r.qWords query-mask words each and cWords token-mask words together,
// filed under at most maxM open slots.
func (a *refineArena) carve(r *partRefiner, nCand, maxM, cWords int) {
	lo, hi := a.sets, a.sets+nCand
	wlo, whi := a.words, a.words+cWords
	a.sets, a.words = hi, whi
	r.states = a.states[lo:hi:hi]
	r.buckets = newIUBBuckets(maxM, a.score[lo:hi:hi])
	r.cBits = a.cBits[wlo:whi:whi]
	qlo, qhi := lo*r.qWords, hi*r.qWords
	r.qBits = a.qBits[qlo:qhi:qhi]
}

// partitionSeed fixes the random partitioning.
const partitionSeed = 0

// NewEngine builds the partition layout, one CSR inverted index per
// partition, and the dense-state addressing tables.
func NewEngine(repo *sets.Repository, src index.NeighborSource, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{repo: repo, src: src, opts: opts, vocabN: repo.VocabSize(), scratch: new(sync.Pool)}
	e.parts = repo.Partition(opts.Partitions, partitionSeed)
	e.invs = make([]*index.Inverted, len(e.parts))
	e.card = make([]int32, repo.Len())
	for i := 0; i < repo.Len(); i++ {
		// ElemIDs, not Elements: mapped segments (DESIGN.md §13) carry only
		// IDs, and the two are always the same length on eager repos.
		e.card[i] = int32(len(repo.Set(i).ElemIDs))
	}
	e.localOf = make([]int32, repo.Len())
	e.cOffs = make([][]int32, len(e.parts))
	e.maxCard = make([]int32, len(e.parts))
	e.cardOrder = make([][]int32, len(e.parts))
	for p, part := range e.parts {
		e.invs[p] = index.NewInvertedSubset(repo, part)
		offs := make([]int32, len(part)+1)
		order := make([]int32, len(part))
		for l, sid := range part {
			e.localOf[sid] = int32(l)
			offs[l+1] = offs[l] + (e.card[sid]+63)/64
			if e.card[sid] > e.maxCard[p] {
				e.maxCard[p] = e.card[sid]
			}
			order[l] = int32(l)
		}
		sort.Slice(order, func(i, j int) bool {
			return e.card[part[order[i]]] > e.card[part[order[j]]]
		})
		e.cOffs[p] = offs
		e.cWords += int(offs[len(part)])
		e.cardOrder[p] = order
	}
	return e
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Repo returns the repository the engine searches.
func (e *Engine) Repo() *sets.Repository { return e.repo }

// streamTuple is one materialized token-stream tuple. first marks the
// global first arrival of the token, i.e. the tuple carrying the token's
// maximum similarity to any query element. tokenID is -1 for the identity
// tuple of a query element occurring in no repository set.
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
// for t = 0). Built in two flat allocations from the materialized stream —
// no per-token slices, no string keys. A search that cut the token stream
// drains the unconsumed tail into the tuple arena first (DESIGN.md §10), so
// the cache always holds every α-edge the source retrieved.
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
// Group; multi-segment collections build the Group themselves.
func (e *Engine) SearchContext(ctx context.Context, query []string) ([]Result, Stats, error) {
	gres, stats, err := e.group().SearchContext(ctx, query)
	if err != nil {
		return nil, stats, err
	}
	results := make([]Result, len(gres))
	for i, r := range gres {
		results[i] = Result{SetID: r.Local, Score: r.Score, Verified: r.Verified}
	}
	return results, stats, nil
}

// group returns the engine alone as a Group, searched under the options the
// engine was built with.
func (e *Engine) group() *Group { return &Group{Engines: []*Engine{e}, Opts: e.opts} }

// drainStream finishes a cut stream into the tuple arena for edge-cache
// building only — the appended tail never reaches the refiners, and the
// cache's consumers (verification matrices, the bound replay) are
// order-insensitive within a token's edge list, so the tail is pulled in
// arbitrary order (Stream.DrainRest) without paying any ordering cost.
// Annotation continues through the same scratch; the first-arrival flags of
// tail tuples are meaningless, but nothing reads them (only refinement
// does, and it never sees the tail). The cache CONTENT is bit-identical to
// that of a search that consumed the whole stream.
func (e *Engine) drainStream(st *index.Stream, tuples []streamTuple, sc *queryScratch, live []uint64) []streamTuple {
	st.DrainRest(func(tup index.Tuple) {
		tuples = append(tuples, e.noteTuple(tup, sc, live))
	})
	return tuples
}

// noteTuple annotates one raw stream tuple: vocabulary demotion, global
// first-arrival tracking (through sc.seen), and per-token edge counting
// (through sc.offsets). Shared by the block pump and the cut drain above,
// so the edge cache counts every tuple exactly once. live (nil on a static
// engine) is the segmented engine's live-token bitset.
func (e *Engine) noteTuple(tup index.Tuple, sc *queryScratch, live []uint64) streamTuple {
	id := e.liveID(tup.TokenID, live)
	first := true
	if id >= 0 {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		first = sc.seen[w]&bit == 0
		sc.seen[w] |= bit
		sc.offsets[id]++
	}
	return streamTuple{tokenID: id, qIdx: int32(tup.QIdx), sim: tup.Sim, first: first}
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

// buildEdgeCache turns the consumed tuple prefix into the CSR edge cache:
// prefix-sum the per-token counts in sc.offsets into fill cursors, fill the
// arena, and let the cursors land on the end offsets the accessor expects.
// The cache aliases sc.offsets; the caller owns sc until done with it.
func (e *Engine) buildEdgeCache(tuples []streamTuple, sc *queryScratch) *edgeCache {
	offsets := sc.offsets
	total := int32(0)
	for t, n := range offsets {
		offsets[t] = total
		total += n
	}
	arena := make([]qEdge, total)
	for i := range tuples {
		tup := &tuples[i]
		if tup.tokenID < 0 {
			continue
		}
		at := offsets[tup.tokenID]
		arena[at] = qEdge{qIdx: tup.qIdx, sim: tup.sim}
		offsets[tup.tokenID] = at + 1
	}
	return &edgeCache{offsets: offsets, arena: arena}
}
