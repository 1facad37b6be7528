package core

import (
	"repro/internal/matching"
	"repro/internal/sets"
)

// verifyScratch is the reusable state of one verification worker: the sparse
// solver with its CSR and Dijkstra buffers, the edge list handed to it, and
// the sandwich's maxima, column adjacency and working arrays. It lives in the
// pooled queryScratch; post-processing owns one per worker for the length of
// a search, and it is never shared between in-flight verifications.
type verifyScratch struct {
	solver  matching.SparseSolver
	sand    matching.SandwichScratch
	edges   []matching.Edge
	rowMax  []float64
	colMax  []float64
	colRows [][]int32
	flatAdj []int32
}

// verify computes the exact semantic overlap of the query and candidate c by
// maximum-weight bipartite matching over the cached α-edges. When theta is
// non-nil and early termination is enabled, the solver aborts as soon as its
// dual sum — an upper bound on the final score — drops below the current
// global θlb (Lemma 8), certifying that c cannot reach the top-k.
//
// The graph is the α-edges themselves: rows are query element indices,
// columns the candidate tokens with at least one α-edge in candidate order,
// edges fetched by interned token ID straight from the ID-indexed cache
// (c.ElemIDs is always in-vocabulary: repository sets define the
// vocabulary). Nothing is densified — the solver's cost follows the edge
// count, not |Q|·|C|.
func (e *Engine) verify(opts *Options, qN int, cache *edgeCache, c sets.Set, theta *atomicMax, vs *verifyScratch) matching.Result {
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
	if theta != nil && !opts.DisableEarlyTerm {
		bound = theta.Load
	}
	// Verification sandwich (DESIGN.md §12): row/column maxima, read straight
	// off the edge list, bracket the optimum from above. Σ rowMax is
	// bit-identical to the solver's initial dual sum, so the UB prune is a
	// superset of its entry check. The pre-solver is conclusive-or-silent —
	// results are byte-identical with the sandwich disabled.
	res := matching.Result{Pruned: true, Skipped: true}
	if bound == nil || opts.DisableSandwich || !vs.sandwichPrune(qN, cols, bound) {
		res = vs.solver.Solve(qN, cols, vs.edges, bound)
	}
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

// sandwichPrune derives matching.SandwichPrune's inputs from vs.edges, which verify
// filled column by column: maxima per row and column, and each column's row
// adjacency as a slice of one flat array.
func (vs *verifyScratch) sandwichPrune(rows, cols int, bound func() float64) bool {
	vs.rowMax = append(vs.rowMax[:0], make([]float64, rows)...)
	vs.colMax = append(vs.colMax[:0], make([]float64, cols)...)
	vs.colRows = append(vs.colRows[:0], make([][]int32, cols)...)
	vs.flatAdj = append(vs.flatAdj[:0], make([]int32, len(vs.edges))...)
	start := 0
	for i, ed := range vs.edges {
		vs.flatAdj[i] = int32(ed.Q)
		if ed.W > vs.rowMax[ed.Q] {
			vs.rowMax[ed.Q] = ed.W
		}
		if ed.W > vs.colMax[ed.C] {
			vs.colMax[ed.C] = ed.W
		}
		if i+1 == len(vs.edges) || vs.edges[i+1].C != ed.C {
			vs.colRows[ed.C] = vs.flatAdj[start : i+1]
			start = i + 1
		}
	}
	return vs.sand.Prune(vs.rowMax, vs.colMax, vs.colRows, bound)
}
