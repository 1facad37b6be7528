package index

import "sync/atomic"

// MemPostings is the inverted index of a memtable (DESIGN.md §4): where
// Inverted is built once over a frozen repository, this one grows a row at a
// time under the collection's writer lock while searches read it through
// views, without a lock and without waiting on the writer.
//
// Postings are entries (sid, pos) in one append-only arena, threaded into a
// forward chain per token. Two kinds of word link a chain, and each is
// written at most once, from zero: first[token] when the token first occurs,
// and the next word of an entry when the token's following entry is appended.
// Both hold 1 + the index of the entry they point at, so the zero a fresh
// table or entry starts with reads "none". Rows are appended in ascending set
// ID, so a chain lists a token's postings in the order Inverted's CSR fill
// produces.
//
// A view fixes a horizon: the number of entries that existed when it was
// taken. It follows first → next and stops at the first link that is unset or
// points at or past its horizon. Whatever the writer does afterwards — append
// entries, set a link a reader is about to load, move the arena or the token
// table to a larger array — can only add entries past that horizon, so a view
// keeps reading exactly the postings of its moment. The link words are
// atomic because a reader may load one while the writer sets it; everything
// else a reader touches was written before its view was taken and is never
// written again.
type MemPostings struct {
	first   []atomic.Int32 // token → 1+index of its first entry
	last    []int32        // token → 1+index of its last entry; the writer's alone
	entries []memEntry
}

type memEntry struct {
	sid, pos int32
	next     atomic.Int32 // 1+index of the token's next entry
}

// NewMemPostings returns an empty index over a vocabulary of vocab tokens;
// Append grows the vocabulary as needed.
func NewMemPostings(vocab int) *MemPostings {
	p := &MemPostings{}
	p.growVocab(vocab)
	return p
}

// Append indexes the next row: ids are set sid's distinct token IDs, their
// positions in the slice the element positions. sid must exceed every set ID
// appended before. Not safe for concurrent use; views taken earlier are
// unaffected.
func (p *MemPostings) Append(sid int32, ids []int32) {
	if need := len(p.entries) + len(ids); need > cap(p.entries) {
		// Readers may hold the old arena, so its entries are copied, not
		// moved; links set from here on land in the new one only, and they
		// all point past every earlier horizon.
		grown := make([]memEntry, len(p.entries), max(2*cap(p.entries), need, 64))
		for i := range p.entries {
			old := &p.entries[i]
			grown[i].sid, grown[i].pos = old.sid, old.pos
			grown[i].next.Store(old.next.Load())
		}
		p.entries = grown
	}
	for pos, id := range ids {
		if int(id) >= len(p.first) {
			p.growVocab(int(id) + 1)
		}
		at := int32(len(p.entries)) + 1
		p.entries = p.entries[:at]
		e := &p.entries[at-1]
		e.sid, e.pos = sid, int32(pos)
		if prev := p.last[id]; prev == 0 {
			p.first[id].Store(at)
		} else {
			p.entries[prev-1].next.Store(at)
		}
		p.last[id] = at
	}
}

// growVocab moves the token tables to arrays of n tokens and an eighth to
// spare: the tables start at the dictionary's size, only the tokens the
// memtable's own rows bring make them grow, and the spare usually holds all of
// those. A view holding the old first table misses only chains started after
// it was taken.
func (p *MemPostings) growVocab(n int) {
	n += n/8 + 64
	first := make([]atomic.Int32, n)
	for i := range p.first {
		first[i].Store(p.first[i].Load())
	}
	p.first = first
	p.last = append(p.last, make([]int32, n-len(p.last))...)
}

// View returns the index as it stands: later appends do not show through it.
// Views are values; any number of goroutines may read one while the writer
// keeps appending.
func (p *MemPostings) View() MemView {
	return MemView{first: p.first, entries: p.entries}
}

// MemView is a MemPostings frozen at the horizon it was taken at.
type MemView struct {
	first   []atomic.Int32
	entries []memEntry // the arena up to the horizon
}

// Postings gathers token id's posting list into sids and poss (reusing their
// arrays) and returns them: global set IDs ascending, and the token's element
// position in each set — what Inverted.Postings returns for the same rows.
// IDs outside the view's vocabulary yield empty lists.
func (v MemView) Postings(id int32, sids, poss []int32) ([]int32, []int32) {
	sids, poss = sids[:0], poss[:0]
	if id < 0 || int(id) >= len(v.first) {
		return sids, poss
	}
	for at := v.first[id].Load(); at != 0 && int(at) <= len(v.entries); {
		e := &v.entries[at-1]
		sids = append(sids, e.sid)
		poss = append(poss, e.pos)
		at = e.next.Load()
	}
	return sids, poss
}
