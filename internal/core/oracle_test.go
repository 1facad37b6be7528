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
// (matching.SparseSolver, solveSO). The dense Hungarian solves the same
// matrix independently of it, and the two must agree within 1e-9.
func exactSO(t testing.TB, query, elems []string, fn sim.Func, alpha float64) float64 {
	t.Helper()
	so, edges := solveSO(query, elems, fn, alpha)
	if len(edges) == 0 {
		return 0
	}
	w := make([][]float64, len(sets.Dedup(query)))
	for i := range w {
		w[i] = make([]float64, len(elems))
	}
	for _, ed := range edges {
		w[ed.Q][ed.C] = ed.W
	}
	if dense := matching.Hungarian(w).Score; math.Abs(so-dense) > 1e-9 {
		t.Fatalf("oracle: sparse solver scores %v, dense Hungarian %v (query %v, set %v)", so, dense, query, elems)
	}
	return so
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
				edges = append(edges, matching.Edge{Q: i, C: j, W: s})
			}
		}
	}
	if len(edges) == 0 {
		return 0, nil
	}
	var solver matching.SparseSolver
	return solver.Solve(len(query), len(elems), edges, nil).Score, edges
}

// bruteForceTopK returns every candidate (SO > 0) in the rule's order
// (DESIGN.md §1): score descending, then name, then set ID.
func bruteForceTopK(t testing.TB, repo *sets.Repository, query []string, fn sim.Func, alpha float64) []scoredSet {
	t.Helper()
	return rankByScore(repo, func(elems []string) float64 { return exactSO(t, query, elems, fn, alpha) })
}

// rankByScore scores every set of repo and returns those above 0 in the
// rule's order.
func rankByScore(repo *sets.Repository, score func(elems []string) float64) []scoredSet {
	var out []scoredSet
	for _, c := range repo.Sets() {
		if so := score(c.Elements); so > 0 {
			out = append(out, scoredSet{setID: c.ID, score: so})
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
