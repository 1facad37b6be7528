package index

import (
	"sync"
	"sync/atomic"

	"repro/internal/sets"
	"repro/internal/sim"
)

// Syncer marks a NeighborSource that can follow a growing shared dictionary
// (DESIGN.md §4). The segment manager calls Sync after interning a
// mutation's tokens and before publishing the snapshot that contains them,
// so every published segment is fully covered by the source. Sources
// without Sync are static: a segmented engine built over one rejects
// inserts (deletes need no index support).
type Syncer interface {
	Sync()
}

// QueryVocabBound marks a NeighborSource whose retrieval requires the query
// element itself to be an indexed token — vector indexes, where an
// unindexed element has no vector to search with. On such sources the
// segmented engine skips probes for query tokens surviving only in deleted
// sets, matching an index built from scratch on the live collection.
// Function-scan sources can score any query string against the vocabulary
// and are probed unconditionally.
type QueryVocabBound interface {
	QueryVocabBound()
}

// DynamicFunc is the dynamic counterpart of FuncIndex: threshold retrieval
// for an arbitrary similarity function over a shared, growing dictionary.
// Every call scans the dictionary's current snapshot, so freshly interned
// tokens are retrievable immediately; neighbor IDs are global dictionary
// IDs. Safe for concurrent use.
type DynamicFunc struct {
	dict *sets.Dictionary
	funcScan
}

// NewDynamicFunc builds a dynamic threshold-scan source over dict.
// Construction is O(1): the sketch column is built by the first Sync or
// scan, not on the (cold-start critical) build path.
func NewDynamicFunc(dict *sets.Dictionary, fn sim.Func) *DynamicFunc {
	return &DynamicFunc{dict: dict, funcScan: funcScan{fn: fn}}
}

// Neighbors implements NeighborSource over the dictionary's current
// snapshot.
func (f *DynamicFunc) Neighbors(q string, alpha float64) []Neighbor {
	return sorted(f.scan(f.dict.Snapshot(), q, alpha, nil))
}

// NeighborCursors implements LazySource: same exhaustive scan, over one
// snapshot for all the elements, neighbors ordered only as they are consumed.
func (f *DynamicFunc) NeighborCursors(qs []string, alpha float64) []NeighborCursor {
	return f.cursors(f.dict.Snapshot(), qs, alpha)
}

// Sync implements Syncer: it sketches the dictionary tokens interned since
// the last call, so searches find the column already covering them. Cheap
// when current (one snapshot, no lock of its own).
func (f *DynamicFunc) Sync() {
	if b, ok := f.fn.(sim.Batcher); ok && !f.noFilters {
		f.col.cover(b, f.dict.Snapshot())
	}
}

// DynamicExact is the dynamic counterpart of Exact: brute-force cosine
// retrieval over embedding vectors that extends itself as the shared
// dictionary grows. Vectors of newly interned tokens are fetched and
// normalized by Sync (or lazily on retrieval). Readers take no lock: Sync
// appends to the append-only rows under the writer lock and then publishes
// an immutable view through one atomic pointer, and a scan runs to the end
// on the view it loaded. Safe for concurrent use.
type DynamicExact struct {
	dict *sets.Dictionary
	vec  func(string) ([]float32, bool)

	mu   sync.Mutex // serializes Sync; never taken by readers
	view atomic.Pointer[vecView]
}

// vecView is one published state of a DynamicExact: the vector rows of the
// covered tokens among the first len(rowOf) dictionary tokens.
type vecView struct {
	vecRows
	rowOf []int32 // dictionary ID -> row, -1 when the token has no vector
}

// NewDynamicExact builds a dynamic exact vector source over dict, covering
// every current and future dictionary token for which vec returns a vector.
// Construction is O(1): the retrieval entry points Sync lazily, so the
// vocabulary is embedded on first use, not on the (cold-start critical)
// build path.
func NewDynamicExact(dict *sets.Dictionary, vec func(string) ([]float32, bool)) *DynamicExact {
	e := &DynamicExact{dict: dict, vec: vec}
	e.view.Store(&vecView{})
	return e
}

// QueryVocabBound marks the index as requiring indexed query elements
// (cosine retrieval needs the query element's vector).
func (e *DynamicExact) QueryVocabBound() {}

// Sync implements Syncer: it indexes dictionary tokens interned since the
// last call. Cheap when already current (one dictionary size check, no lock
// of its own).
func (e *DynamicExact) Sync() { e.current() }

// current returns a view covering every token the dictionary held when it
// was called.
func (e *DynamicExact) current() *vecView {
	n := e.dict.Size()
	if v := e.view.Load(); len(v.rowOf) >= n {
		return v
	}
	vocab := e.dict.Prefix(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.view.Load()
	if len(old.rowOf) >= n {
		return old // another Sync got here first
	}
	next := *old // add writes only lanes no row of old owns: its readers never see them
	for vi := len(old.rowOf); vi < n; vi++ {
		tok := vocab[vi]
		row := int32(-1)
		if v, ok := e.vec(tok); ok {
			row = int32(len(next.tokens))
			next.add(tok, int32(vi), v)
		}
		next.rowOf = append(next.rowOf, row)
	}
	e.view.Store(&next)
	return &next
}

// lookup returns q's row in v, -1 when q has no vector (out-of-vocabulary query
// element: no semantic neighbors).
func (e *DynamicExact) lookup(v *vecView, q string) int {
	if id := e.dict.Lookup(q); id >= 0 && int(id) < len(v.rowOf) {
		return int(v.rowOf[id])
	}
	return -1
}

// Len returns the number of indexed (covered) tokens.
func (e *DynamicExact) Len() int { return len(e.view.Load().tokens) }

// Neighbors implements NeighborSource: one exhaustive linear scan of the
// vector arena, sorted descending.
func (e *DynamicExact) Neighbors(q string, alpha float64) []Neighbor {
	v := e.current()
	qi := e.lookup(v, q)
	if qi < 0 {
		return nil
	}
	return sorted(v.scan(qi, alpha, nil))
}

// NeighborCursors implements LazySource: all the elements against one view,
// in one pass of its arena.
func (e *DynamicExact) NeighborCursors(qs []string, alpha float64) []NeighborCursor {
	v := e.current()
	return v.cursors(qs, alpha, func(q string) int { return e.lookup(v, q) })
}

// PairSim implements CompleteScorer: the exact dot product retrieval uses,
// 0 when either token has no vector.
func (e *DynamicExact) PairSim(a, b string) float64 {
	v := e.current()
	ai, bi := e.lookup(v, a), e.lookup(v, b)
	if ai < 0 || bi < 0 {
		return 0
	}
	return v.dot(ai, bi)
}
