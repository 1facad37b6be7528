package core

import (
	"math"
	"sort"

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
// direct Hungarian matching over the full α-thresholded similarity matrix —
// the test oracle for the whole engine.
func exactSO(query, elems []string, fn sim.Func, alpha float64) float64 {
	w := make([][]float64, len(query))
	any := false
	for i, q := range query {
		w[i] = make([]float64, len(elems))
		for j, t := range elems {
			s := fn.Sim(q, t)
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

// bruteForceTopK returns every candidate (SO > 0) in descending score
// order.
func bruteForceTopK(repo *sets.Repository, query []string, fn sim.Func, alpha float64) []scoredSet {
	var out []scoredSet
	for _, c := range repo.Sets() {
		if so := exactSO(query, c.Elements, fn, alpha); so > 0 {
			out = append(out, scoredSet{setID: c.ID, score: so})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].setID < out[j].setID
	})
	return out
}

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
