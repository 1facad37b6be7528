package core

import (
	"repro/internal/matching"
	"repro/internal/sets"
)

// verifyScratch is the reusable state of one verification worker: the sparse
// solver with its CSR and Dijkstra buffers, and the edge list handed to it.
// It lives in the pooled queryScratch; post-processing owns one per worker
// for the length of a search, and it is never shared between in-flight
// verifications.
type verifyScratch struct {
	solver matching.SparseSolver
	edges  []matching.Edge
}

// verify computes the exact semantic overlap of the query and candidate c by
// maximum-weight bipartite matching over the cached α-edges. When theta is
// non-nil, the solver aborts as soon as its dual sum — an upper bound on the
// final score — drops below the current global θlb (Lemma 8), certifying
// that c cannot reach the top-k.
//
// The graph is the α-edges themselves: rows are query element indices,
// columns the candidate tokens with at least one α-edge in candidate order,
// edges fetched by interned token ID straight from the ID-indexed cache
// (c.ElemIDs is always in-vocabulary: repository sets define the
// vocabulary). Nothing is densified — the solver's cost follows the edge
// count, not |Q|·|C|.
func (e *Engine) verify(qN int, cache *edgeCache, c sets.Set, theta *atomicMax, vs *verifyScratch) matching.Result {
	vs.edges = vs.edges[:0]
	cols := 0
	for _, tid := range c.ElemIDs {
		edges := cache.edges(tid)
		if len(edges) == 0 {
			continue
		}
		for _, ed := range edges {
			vs.edges = append(vs.edges, matching.Edge{Q: int(ed.qIdx), C: cols, W: ed.sim})
		}
		cols++
	}
	if cols == 0 {
		return matching.Result{}
	}
	var bound func() float64
	if theta != nil {
		bound = theta.Load
	}
	res := vs.solver.Solve(qN, cols, vs.edges, bound)
	if e.verifyHook != nil {
		// The hook keeps what it is given; handing it bound itself would
		// move every verification's method value to the heap.
		var hookBound func() float64
		if bound != nil {
			hookBound = theta.Load
		}
		e.verifyHook(qN, cols, vs.edges, hookBound, res)
	}
	return res
}
