package core

import "repro/internal/matching"

// verifyScratch is the reusable state of one verification worker: the sparse
// solver with its CSR and Dijkstra buffers, and the edge list it gathers a
// set's α-graph into. It lives in the pooled queryScratch, one per
// post-processing worker for the length of a search (the θlb seed solves on
// the first), and it is never shared between in-flight verifications.
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
			dst = append(dst, matching.Edge{Q: ed.qIdx, C: int32(cols), W: ed.sim})
		}
		cols++
	}
	return dst, cols
}

// seedScore is the exact semantic overlap of one θlb seed set, which
// Group.seedTheta solved: the set with group-wide ID gid scores score, found
// in iters augmentations (the solve's Score and Iterations). Post-processing
// keeps it.
type seedScore struct {
	gid   int
	score float64
	iters int
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
