package matching

import "sort"

// Edge is a weighted edge of a bipartite graph between a query element
// (row Q) and a candidate element (column C). The indices are int32, so an
// edge is 16 bytes: a search's verifier holds thousands of them.
type Edge struct {
	Q, C int32
	W    float64
}

// Greedy computes the greedy maximum matching: edges are considered in
// descending weight order and taken whenever both endpoints are free. The
// result is at least half the optimal score (Vazirani [18]), which makes it
// the LB filter of Lemma 3. Runs in O(E log E).
//
// Ties are broken by (Q, C) index so the result is deterministic.
func Greedy(edges []Edge) Result {
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.W != b.W {
			return a.W > b.W
		}
		if a.Q != b.Q {
			return a.Q < b.Q
		}
		return a.C < b.C
	})
	return GreedyOrdered(sorted)
}

// GreedyOrdered computes the greedy matching of edges that are already in
// descending weight order — exactly the situation in Koios's refinement
// phase, where the token stream emits edges in that order (Lemma 5). Its
// score is the taken weights' Sum, as the exact solvers report theirs.
func GreedyOrdered(edges []Edge) Result {
	maxQ := int32(-1)
	for _, e := range edges {
		if e.Q > maxQ {
			maxQ = e.Q
		}
	}
	match := make([]int, maxQ+1)
	for i := range match {
		match[i] = -1
	}
	usedC := make(map[int32]bool, len(edges))
	var ws []float64
	iterations := 0
	for _, e := range edges {
		iterations++
		if e.W <= 0 {
			continue
		}
		if match[e.Q] != -1 || usedC[e.C] {
			continue
		}
		match[e.Q] = int(e.C)
		usedC[e.C] = true
		ws = append(ws, e.W)
	}
	return Result{Score: Sum(ws), Match: match, Iterations: iterations}
}
