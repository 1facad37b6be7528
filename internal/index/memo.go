package index

import (
	"slices"
	"sync/atomic"
)

// neighbourMemo is an exhaustive source's memo of α-neighbour lists: one
// entry per vocabulary position it has probed — an arena row under the
// vector sources, a dictionary ID under the function scans — each published
// through its own atomic pointer, so a reader takes no lock. Over an
// append-only vocabulary a token's neighbours depend only on the token, α
// and the horizon the scan covered (the positions before it), so an entry
// answers every later probe of its token at its α on a view no longer than
// its horizon: the entry's neighbours that view holds are, ID for ID and
// bit for bit, what a scan of that view returns (DESIGN.md §9).
//
// A probe on a view past an entry's horizon, or at another α, scans and
// replaces it; an entry is never mutated. The table is sized to the
// vocabulary by grow, under the source's writer lock, so the memo holds at
// most one entry per vocabulary token and needs no eviction. The zero value
// is an empty memo without slots; a nil one answers and stores nothing.
type neighbourMemo struct {
	slots atomic.Pointer[[]atomic.Pointer[memoEntry]]
}

// memoEntry is one probed token's neighbours at alpha over the first
// horizon positions: their IDs ascending — IDs ascend with positions —
// and sims[k] the similarity of ids[k].
type memoEntry struct {
	alpha   float64
	horizon int
	ids     []int32
	sims    []float64
}

// size returns the number of positions the table has slots for.
func (m *neighbourMemo) size() int {
	if s := m.slots.Load(); s != nil {
		return len(*s)
	}
	return 0
}

// grow gives the table at least n slots. The caller holds the source's
// writer lock. A store into the old table while its slots are copied may be
// lost, which costs a later probe one scan.
func (m *neighbourMemo) grow(n int) {
	old := m.slots.Load()
	if old != nil && len(*old) >= n {
		return
	}
	var s []atomic.Pointer[memoEntry]
	switch {
	case old != nil && cap(*old) >= n:
		s = (*old)[:n] // the slots past the old length no reader had in range
	case old != nil:
		s = make([]atomic.Pointer[memoEntry], n, max(n, 2*len(*old)))
		for i := range *old {
			s[i].Store((*old)[i].Load())
		}
	default:
		s = make([]atomic.Pointer[memoEntry], n)
	}
	m.slots.Store(&s)
}

// load returns position i's entry when it answers a probe at alpha on a
// view of horizon positions, nil otherwise.
func (m *neighbourMemo) load(i int, alpha float64, horizon int) *memoEntry {
	if m == nil || i < 0 {
		return nil
	}
	s := m.slots.Load()
	if s == nil || i >= len(*s) {
		return nil
	}
	if e := (*s)[i].Load(); e != nil && e.alpha == alpha && e.horizon >= horizon {
		return e
	}
	return nil
}

// store records ns, what a scan of a view of horizon positions found for
// position i at alpha in ascending position, unless the slot already holds
// an entry at alpha covering as much. Positions outside the table and a NaN
// α, which no probe can equal, are not stored.
func (m *neighbourMemo) store(i int, alpha float64, horizon int, ns []Neighbor) {
	if m == nil || i < 0 || alpha != alpha {
		return
	}
	s := m.slots.Load()
	if s == nil || i >= len(*s) {
		return
	}
	slot := &(*s)[i]
	if old := slot.Load(); old != nil && old.alpha == alpha && old.horizon >= horizon {
		return
	}
	e := &memoEntry{alpha: alpha, horizon: horizon, ids: make([]int32, len(ns)), sims: make([]float64, len(ns))}
	for k, nb := range ns {
		e.ids[k], e.sims[k] = nb.ID, nb.Sim
	}
	for {
		old := slot.Load()
		if old != nil && old.alpha == alpha && old.horizon >= horizon {
			return
		}
		if slot.CompareAndSwap(old, e) {
			return
		}
	}
}

// appendTo appends to buf, in ascending position, e's neighbours whose ID
// is below limit — those a view ending before the position of ID limit
// has — with their tokens from byID, the vocabulary by ID. buf is the
// caller's, never the entry's storage.
func (e *memoEntry) appendTo(buf []Neighbor, byID []string, limit int32) []Neighbor {
	buf = slices.Grow(buf, len(e.ids))
	for k, id := range e.ids {
		if id >= limit {
			break
		}
		buf = append(buf, Neighbor{Token: byID[id], Sim: e.sims[k], ID: id})
	}
	return buf
}
