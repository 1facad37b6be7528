package core

import (
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sim"
)

// modelTopK is the reference model's first k sets for query
// (internal/model): every set scored by brute force, ranked by the rule.
func modelTopK(t testing.TB, rk *model.Ranker, query []string, k int) []model.Result {
	t.Helper()
	res, err := rk.TopK(query, k)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return res
}

// modelScore is the reference model's score of the set at position i of
// rk's sets: the bits the verifier gives it.
func modelScore(t testing.TB, rk *model.Ranker, query []string, i int) float64 {
	t.Helper()
	so, err := rk.Score(query, i)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return so
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
