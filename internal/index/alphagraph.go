package index

import (
	"repro/internal/matching"
	"repro/internal/sets"
)

// AlphaGraph is the α-graph of two explicit sets: the bipartite similarity
// graph whose maximum-weight matching is their semantic overlap (§III). An
// edge's Q indexes A and its C indexes B.
type AlphaGraph struct {
	// A and B are the two sets without repeats, in first-occurrence order.
	A, B  []string
	Edges []matching.Edge
	// Vanilla counts the identity edges: the vanilla overlap |A ∩ B|.
	Vanilla int
}

// NewAlphaGraph builds the α-graph of a and b over src: an identity edge of
// weight 1 for every element the two sets share, and an edge for every
// α-neighbour src returns for an element of a that is an element of b.
// Memory follows the number of edges, never |a|·|b|.
func NewAlphaGraph(src NeighborSource, alpha float64, a, b []string) AlphaGraph {
	g := AlphaGraph{A: sets.Dedup(a), B: sets.Dedup(b)}
	inB := make(map[string]int, len(g.B))
	for j, y := range g.B {
		inB[y] = j
	}
	for i, x := range g.A {
		if j, ok := inB[x]; ok {
			g.Vanilla++
			g.Edges = append(g.Edges, matching.Edge{Q: int32(i), C: int32(j), W: 1})
		}
		for _, n := range src.Neighbors(x, alpha) {
			if j, ok := inB[n.Token]; ok && n.Token != x {
				g.Edges = append(g.Edges, matching.Edge{Q: int32(i), C: int32(j), W: n.Sim})
			}
		}
	}
	return g
}

// Match returns the graph's maximum-weight matching. Its Score is the
// semantic overlap of A and B, and Match[i] is the element of B that A[i]
// is matched to (-1 for none).
func (g AlphaGraph) Match() matching.Result {
	var solver matching.SparseSolver
	return solver.Solve(len(g.A), len(g.B), g.Edges, nil)
}
