package core

import (
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/sets"
)

// Growing is an engine under construction that is searchable at every step:
// the writer's side of the segment manager's memtable (DESIGN.md §4). Append
// adds one row at the cost of that row; Engine returns an ordinary *Engine
// over the rows appended so far, which stays valid, and keeps answering from
// exactly those rows, however many are appended afterwards.
//
// That works because everything an Engine reads per row lives in slices that
// are only ever appended to: an Engine holds the prefix that existed when it
// was taken, the writer writes at indices past every prefix handed out, and a
// slice that outgrows its array moves on to a new one while the old array
// stays with its readers. The postings are index.MemPostings' write-once
// chains under the same rule. Only cardOrder is not a prefix of anything — a
// new row lands in the middle of it — so each Append replaces it: one int32
// per row.
//
// Append and Engine are for one writer at a time; the Engines are as safe
// for concurrent searches as any other.
type Growing struct {
	dict *sets.Dictionary
	src  index.NeighborSource
	opts Options

	rows []sets.Set
	// ident and local both hold i at index i: the one partition as
	// Engine.parts wants it, and Engine.localOf.
	ident   []int
	local   []int32
	card    []int32
	cOffs   []int32 // one longer than rows
	order   []int32
	maxCard int32
	post    *index.MemPostings
	scratch *sync.Pool
}

// NewGrowing returns an empty Growing whose rows intern into dict. The
// engines it hands out have one partition whatever opts asks for: the rows
// are few and every one of them is new.
func NewGrowing(dict *sets.Dictionary, src index.NeighborSource, opts Options) *Growing {
	opts = opts.withDefaults()
	opts.Partitions = 1
	return &Growing{
		dict: dict, src: src, opts: opts,
		cOffs:   []int32{0},
		post:    index.NewMemPostings(dict.Size()),
		scratch: new(sync.Pool),
	}
}

// Len returns the number of rows appended.
func (g *Growing) Len() int { return len(g.rows) }

// Row returns row i.
func (g *Growing) Row(i int) sets.Set { return g.rows[i] }

// Append adds row, which sets.InternSet produced against the Growing's
// dictionary and which must carry its name, as the next set ID.
func (g *Growing) Append(row sets.Set) {
	id := len(g.rows)
	row.ID = id
	c := int32(len(row.ElemIDs))
	g.rows = append(g.rows, row)
	g.ident = append(g.ident, id)
	g.local = append(g.local, int32(id))
	g.card = append(g.card, c)
	g.cOffs = append(g.cOffs, g.cOffs[id]+(c+63)/64)
	g.maxCard = max(g.maxCard, c)
	g.post.Append(int32(id), row.ElemIDs)

	// Descending cardinality, the new row after its equals.
	at := sort.Search(id, func(i int) bool { return g.card[g.order[i]] < c })
	order := make([]int32, id+1)
	copy(order, g.order[:at])
	order[at] = int32(id)
	copy(order[at+1:], g.order[at:])
	g.order = order
}

// Engine returns the engine over the rows appended so far, its vocabulary
// horizon the dictionary's current size.
func (g *Growing) Engine() *Engine {
	repo := sets.SegmentOver(g.dict, g.rows)
	return &Engine{
		repo: repo, src: g.src, opts: g.opts, vocabN: repo.VocabSize(),
		parts: [][]int{g.ident}, invs: []*index.Inverted{nil}, mem: g.post.View(),
		card: g.card, localOf: g.local,
		cOffs: [][]int32{g.cOffs}, maxCard: []int32{g.maxCard}, cardOrder: [][]int32{g.order},
		cWords:  int(g.cOffs[len(g.rows)]),
		scratch: g.scratch,
	}
}
