package core

import (
	"cmp"
	"slices"

	"repro/internal/matching"
)

// verifyScratch is the reusable state of one verification worker: the sparse
// solver with its CSR and Dijkstra buffers, and the edge list it gathers a
// set's α-graph into when the θlb seed has not. It lives in the pooled
// queryScratch; post-processing owns one per worker for the length of a
// search, and it is never shared between in-flight verifications.
type verifyScratch struct {
	solver matching.SparseSolver
	edges  []matching.Edge
}

// appendGraph appends to dst the α-graph of a set with element IDs elems, as
// verification solves it, and returns it with its column count. Rows are
// query element indices; columns are the set's elements with at least one
// α-edge, in set order; each column's edges are its token's cached edges in
// cache order, fetched by interned token ID straight from the ID-indexed
// cache (a set's IDs are always in the vocabulary: repository sets define
// it). Nothing is densified — the solver's cost follows the edge count, not
// |Q|·|C|.
func appendGraph(dst []matching.Edge, cache *edgeCache, elems []int32) ([]matching.Edge, int) {
	cols := 0
	for _, tid := range elems {
		edges := cache.edges(tid)
		if len(edges) == 0 {
			continue
		}
		for _, ed := range edges {
			dst = append(dst, matching.Edge{Q: int(ed.qIdx), C: cols, W: ed.sim})
		}
		cols++
	}
	return dst, cols
}

// seedGraph is the α-graph of one θlb seed set, which Group.seedTheta
// gathers into queryScratch.seedEdges: the set with group-wide ID gid has
// edges seedEdges[lo:hi] over cols columns.
type seedGraph struct {
	gid, lo, hi, cols int
}

// seedGraphOf returns the α-graph the θlb seed gathered for the set with
// group-wide ID gid, if it gathered one. The seed's graphs are read-only
// once it is formed, so concurrent verifications share them.
func (s *queryScratch) seedGraphOf(gid int) ([]matching.Edge, int, bool) {
	i, ok := slices.BinarySearchFunc(s.seedGraphs, gid, func(g seedGraph, gid int) int { return cmp.Compare(g.gid, gid) })
	if !ok {
		return nil, 0, false
	}
	g := &s.seedGraphs[i]
	return s.seedEdges[g.lo:g.hi], g.cols, true
}

// verify computes the exact semantic overlap of the query (qN elements) and
// a set of e by maximum-weight bipartite matching over the set's α-graph,
// edges over cols columns as appendGraph lays it out. When theta is
// non-nil, the solver aborts as soon as its dual sum — an upper bound on
// the final score — drops below the current global θlb (Lemma 8),
// certifying that the set cannot reach the top-k.
func (e *Engine) verify(qN, cols int, edges []matching.Edge, theta *atomicMax, vs *verifyScratch) matching.Result {
	if cols == 0 {
		return matching.Result{}
	}
	var bound func() float64
	if theta != nil {
		bound = theta.Load
	}
	res := vs.solver.Solve(qN, cols, edges, bound)
	if e.verifyHook != nil {
		// The hook keeps what it is given; handing it bound itself would
		// move every verification's method value to the heap.
		var hookBound func() float64
		if bound != nil {
			hookBound = theta.Load
		}
		e.verifyHook(qN, cols, edges, hookBound, res)
	}
	return res
}
