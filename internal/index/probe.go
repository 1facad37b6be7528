package index

import "sync"

// LazySource is an optional NeighborSource extension: a probe that hands
// over every α-neighbor unordered, for all of a search's query elements in
// one pass, so no per-probe sort is paid. A search probes through a Probe,
// which calls Neighbors per element for the sources without it.
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

// Probe is one search's retrieval: the α-neighbors of each query element,
// in arbitrary order — everything the search's token stream holds besides
// its identity tuples. Probes are pooled: NewProbe draws one whose lists
// earlier probes grew, and Release hands it back, so a search over a
// LazySource allocates none of them once the pool is warm.
type Probe struct {
	// lists[i] is query element i's neighbors. owned reports that the
	// lists are the probe's storage, which ScanNeighbors filled; otherwise
	// they are what the source's Neighbors returned, and not the probe's to
	// keep or clear.
	lists [][]Neighbor
	owned bool
	// The probed elements when a mask leaves out some, at[j] the query
	// index of probe[j], and bufs the lists handed to ScanNeighbors.
	probe []string
	at    []int
	bufs  [][]Neighbor
}

var probes = sync.Pool{New: func() any { return new(Probe) }}

// NewProbe retrieves the α-neighbors of query's elements from src: one
// ScanNeighbors pass when src is a LazySource, one Neighbors call per
// element otherwise. Elements with skip[i] set are not probed and have no
// neighbors — how a segmented search treats query elements whose token
// survives only in deleted sets (DESIGN.md §4); a nil skip probes
// everything. The query must hold distinct elements.
func NewProbe(query []string, src NeighborSource, alpha float64, skip []bool) *Probe {
	p := probes.Get().(*Probe)
	if cap(p.lists) < len(query) {
		// Keep the lists' storage, which the elements past the old length
		// get when the probe grows.
		p.lists = append(p.lists[:cap(p.lists)], make([][]Neighbor, len(query)-cap(p.lists))...)
	}
	p.lists = p.lists[:len(query)]
	probe, bufs := query, p.lists
	if skip != nil {
		probe, bufs, p.at = p.probe[:0], p.bufs[:0], p.at[:0]
		for i, q := range query {
			if !skip[i] {
				probe, bufs, p.at = append(probe, q), append(bufs, p.lists[i]), append(p.at, i)
			}
		}
		p.probe, p.bufs = probe, bufs
	}
	ls, lazy := src.(LazySource)
	p.owned = lazy
	if lazy {
		ls.ScanNeighbors(probe, alpha, bufs)
	} else {
		for j, q := range probe {
			bufs[j] = src.Neighbors(q, alpha)
		}
	}
	if skip != nil {
		for j, i := range p.at {
			p.lists[i] = bufs[j]
		}
		clear(p.probe)
		clear(p.bufs) // the lists own what they hold
	}
	return p
}

// Neighbors returns query element i's α-neighbors, in arbitrary order. The
// slice is valid until Release.
func (p *Probe) Neighbors(i int) []Neighbor { return p.lists[i] }

// Release hands the probe back to the pool. Every token it holds is
// dropped first, so a pooled probe pins no request's strings; the lists a
// source returned are let go, not cleared. The probe must not be used
// afterwards.
func (p *Probe) Release() {
	for i, l := range p.lists {
		if p.owned {
			clear(l)
			p.lists[i] = l[:0]
		} else {
			p.lists[i] = nil
		}
	}
	probes.Put(p)
}

// ScorerOf returns src's exhaustive pair scorer, if it has one.
func ScorerOf(src NeighborSource) (CompleteScorer, bool) {
	cs, ok := src.(CompleteScorer)
	return cs, ok
}
