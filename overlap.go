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
	a, b = sets.Dedup(a), sets.Dedup(b)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	w := make([][]float64, len(a))
	any := false
	for i, x := range a {
		w[i] = make([]float64, len(b))
		for j, y := range b {
			s := fn.Sim(x, y)
			if s >= alpha {
				w[i][j] = s
				any = true
			}
		}
	}
	if !any {
		return 0
	}
	return matching.Hungarian(w).Score
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
	a, b = sets.Dedup(a), sets.Dedup(b)
	var edges []matching.Edge
	for i, x := range a {
		for j, y := range b {
			if s := fn.Sim(x, y); s >= alpha {
				edges = append(edges, matching.Edge{Q: i, C: j, W: s})
			}
		}
	}
	return matching.Greedy(edges).Score
}
