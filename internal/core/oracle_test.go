package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
	"repro/internal/sim"
)

// scoredSet pairs a set with its exact semantic overlap.
type scoredSet struct {
	setID int
	score float64
}

// exactSO computes the semantic overlap of query and a set's elements by
// an optimal matching over the full α-thresholded similarity matrix — the
// test oracle for the whole engine. The matrix is the one a search's
// verifier reads: rows are the query's distinct elements in ascending
// order, columns the set's elements in set order. Where several matchings
// are optimal up to rounding — similarities in steps of 0.05 make that
// common — their weights can sum to different bits, and which one a solver
// ends on is up to the solver, so the score bits are the verifier's
// (matching.SparseSolver, solveSO), held to the dense Hungarian by
// denseCheck.
func exactSO(t testing.TB, query, elems []string, fn sim.Func, alpha float64) float64 {
	t.Helper()
	so, edges := solveSO(query, elems, fn, alpha)
	denseCheck(t, so, edges, "query %v, set %v", query, elems)
	return so
}

// denseCheck solves the graph of edges with the dense Hungarian,
// independently of the sparse solver whose score so is, and fails unless
// the two agree within 1e-9. A maximum matching is one per connected
// component of the graph, so the dense solver gets each component's rows
// and columns alone: its time is cubic in a component's larger side, not
// in the graph's.
func denseCheck(t testing.TB, so float64, edges []matching.Edge, format string, args ...any) {
	t.Helper()
	// Union-find over the rows (node 2q) and columns (node 2c+1).
	parent := make(map[int32]int32)
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, ed := range edges {
		parent[find(2*ed.Q)] = find(2*ed.C + 1)
	}
	comps := make(map[int32][]matching.Edge)
	for _, ed := range edges {
		r := find(2 * ed.Q)
		comps[r] = append(comps[r], ed)
	}
	dense := 0.0
	for _, comp := range comps {
		rows, cols := make(map[int32]int), make(map[int32]int)
		for _, ed := range comp {
			if _, ok := rows[ed.Q]; !ok {
				rows[ed.Q] = len(rows)
			}
			if _, ok := cols[ed.C]; !ok {
				cols[ed.C] = len(cols)
			}
		}
		w := make([][]float64, len(rows))
		for i := range w {
			w[i] = make([]float64, len(cols))
		}
		for _, ed := range comp {
			w[rows[ed.Q]][cols[ed.C]] = ed.W
		}
		dense += matching.Hungarian(w).Score
	}
	if math.Abs(so-dense) > 1e-9 {
		t.Fatalf("oracle: sparse solver scores %v, dense Hungarian %v ("+format+")", append([]any{so, dense}, args...)...)
	}
}

// solveSO is exactSO's score without the dense cross-check, and the
// α-edges it solved over.
func solveSO(query, elems []string, fn sim.Func, alpha float64) (float64, []matching.Edge) {
	query = sets.Dedup(query)
	slices.Sort(query)
	var edges []matching.Edge
	for i, q := range query {
		for j, e := range elems {
			if s := fn.Sim(q, e); s >= alpha {
				edges = append(edges, matching.Edge{Q: int32(i), C: int32(j), W: s})
			}
		}
	}
	if len(edges) == 0 {
		return 0, nil
	}
	var solver matching.SparseSolver
	return solver.Solve(len(query), len(elems), edges, nil).Score, edges
}

// pairTable scores fn on pairs of a query element and a token of repo's
// vocabulary, each pair once: it keeps, per query element it has met, the
// tokens of similarity at least α, so the queries of a workload, which
// share most of their elements, pay for each element once.
type pairTable struct {
	repo  *sets.Repository
	fn    sim.Func
	alpha float64
	memo  map[string][]tokSim
}

// tokSim is one α-edge of a query element: a token ID and its similarity.
type tokSim struct {
	tid int32
	w   float64
}

func newPairTable(repo *sets.Repository, fn sim.Func, alpha float64) *pairTable {
	return &pairTable{repo: repo, fn: fn, alpha: alpha, memo: make(map[string][]tokSim)}
}

// row returns q's α-edges into the vocabulary, in token-ID order.
func (p *pairTable) row(q string) []tokSim {
	r, ok := p.memo[q]
	if !ok {
		for tid, tok := range p.repo.Vocabulary() {
			if s := p.fn.Sim(q, tok); s >= p.alpha {
				r = append(r, tokSim{int32(tid), s})
			}
		}
		p.memo[q] = r
	}
	return r
}

// bruteForceTopK returns every set of repo with SO > 0, but those skip
// holds (skip may be nil), in the rule's order (DESIGN.md §1): score
// descending, then name, then set ID. It shares nothing with the engine's
// stream, bounds or filters: it takes every α-edge of the query from tab
// and scores each set by the verifier's solver over its α-edges, as
// solveSO lays them out — exactSO's scores, bit for bit. The sets that
// decide the first k, the first k+1 and any set within 1e-9 of the
// (k+1)-th, are held to the dense Hungarian (denseCheck): checking every
// set would cost seconds per query on the workload shapes.
func bruteForceTopK(t testing.TB, tab *pairTable, query []string, k int, skip func(sets.Set) bool) []scoredSet {
	t.Helper()
	repo := tab.repo
	sorted := sets.Dedup(query)
	slices.Sort(sorted)
	type qEdge struct {
		q int32
		w float64
	}
	adj := make([][]qEdge, len(repo.Vocabulary()))
	for i, q := range sorted {
		for _, e := range tab.row(q) {
			adj[e.tid] = append(adj[e.tid], qEdge{int32(i), e.w})
		}
	}
	var edges []matching.Edge
	graph := func(c sets.Set) []matching.Edge {
		edges = edges[:0]
		for j, tid := range c.ElemIDs {
			for _, e := range adj[tid] {
				edges = append(edges, matching.Edge{Q: e.q, C: int32(j), W: e.w})
			}
		}
		return edges
	}
	var solver matching.SparseSolver
	ranked := rankByScore(repo, func(c sets.Set) float64 {
		if skip != nil && skip(c) {
			return 0
		}
		if graph(c); len(edges) == 0 {
			return 0
		}
		return solver.Solve(len(sorted), len(c.ElemIDs), edges, nil).Score
	})
	for i, s := range ranked {
		if i > k && s.score < ranked[k].score-1e-9 {
			break
		}
		denseCheck(t, s.score, graph(repo.Set(s.setID)), "query %v, set %d", query, s.setID)
	}
	return ranked
}

// rankByScore scores every set of repo and returns those above 0 in the
// rule's order.
func rankByScore(repo *sets.Repository, score func(c sets.Set) float64) []scoredSet {
	var out []scoredSet
	for id := range repo.Len() {
		if so := score(repo.Set(id)); so > 0 {
			out = append(out, scoredSet{setID: id, score: so})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if na, nb := repo.Set(a.setID).Name, repo.Set(b.setID).Name; na != nb {
			return na < nb
		}
		return a.setID < b.setID
	})
	return out
}

// sourceSim scores two tokens as a complete source's retrieval does, and a
// token against itself 1, as the stream's identity tuples do.
type sourceSim struct{ index.CompleteScorer }

func (s sourceSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return s.PairSim(a, b)
}
func (s sourceSim) Name() string { return "source" }

// pairSim is a test similarity function defined by an explicit symmetric
// pair table; unlisted pairs have similarity 0 and identical strings 1.
type pairSim struct {
	pairs map[[2]string]float64
}

func newPairSim() *pairSim { return &pairSim{pairs: make(map[[2]string]float64)} }

func (p *pairSim) set(a, b string, s float64) {
	p.pairs[[2]string{a, b}] = s
	p.pairs[[2]string{b, a}] = s
}

func (p *pairSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return p.pairs[[2]string{a, b}]
}

func (p *pairSim) Name() string { return "pair-table" }

// quantSim rounds a similarity down to a multiple of 0.05, so that equal
// similarities — between two tokens of a candidate and between two query
// elements — are common and tie-breaks decide bounds.
type quantSim struct{ fn sim.Func }

func (q quantSim) Sim(a, b string) float64 { return math.Floor(q.fn.Sim(a, b)*20) / 20 }
func (q quantSim) Name() string            { return "quantised " + q.fn.Name() }

// tableSim is a similarity read from a symmetric table over tokens "t0",
// "t1", …: what FuzzRefinementBounds's bytes decide.
type tableSim struct {
	ids map[string]int
	tab [][]float64
}

func (s tableSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	i, ok := s.ids[a]
	j, ok2 := s.ids[b]
	if !ok || !ok2 {
		return 0
	}
	return s.tab[i][j]
}
func (s tableSim) Name() string { return "table" }
