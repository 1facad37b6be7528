package koios

import (
	"repro/internal/matching"
	"repro/internal/sets"
)

// SemanticOverlap computes the exact semantic overlap SO(a, b) of two sets
// under fn and α: the maximum-weight optional one-to-one matching over the
// α-thresholded similarity graph. It is the pairwise measure the search
// engine ranks by, exposed for one-off comparisons, joins of small
// collections, and tests.
func SemanticOverlap(a, b []string, fn Similarity, alpha float64) float64 {
	rows, cols, edges := alphaEdges(a, b, fn, alpha)
	var solver matching.SparseSolver
	return solver.Solve(rows, cols, edges, nil).Score
}

// alphaEdges is the α-thresholded similarity graph of a and b under fn as
// an edge list: one edge per pair of their distinct elements whose
// similarity reaches α, with rows indexing a and columns b.
func alphaEdges(a, b []string, fn Similarity, alpha float64) (rows, cols int, edges []matching.Edge) {
	a, b = sets.Dedup(a), sets.Dedup(b)
	for i, x := range a {
		for j, y := range b {
			if s := fn.Sim(x, y); s >= alpha {
				edges = append(edges, matching.Edge{Q: int32(i), C: int32(j), W: s})
			}
		}
	}
	return len(a), len(b), edges
}

// VanillaOverlap returns |a ∩ b|, the exact-match overlap — the special
// case of SemanticOverlap under the equality similarity.
func VanillaOverlap(a, b []string) int {
	inA := make(map[string]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	seen := make(map[string]bool, len(b))
	n := 0
	for _, y := range b {
		if inA[y] && !seen[y] {
			seen[y] = true
			n++
		}
	}
	return n
}

// GreedyOverlap scores the greedy matching of the α-thresholded similarity
// graph — at least half the semantic overlap, and not suitable for exact
// ranking (Example 2 of the paper); exposed for comparisons.
func GreedyOverlap(a, b []string, fn Similarity, alpha float64) float64 {
	_, _, edges := alphaEdges(a, b, fn, alpha)
	return matching.Greedy(edges).Score
}
