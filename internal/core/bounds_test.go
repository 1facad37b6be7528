package core

import (
	"context"
	"testing"

	"repro/internal/index"
	"repro/internal/sets"
)

func newTestRepo(t *testing.T, elems [][]string) *sets.Repository {
	t.Helper()
	raw := make([]sets.Set, len(elems))
	for i, e := range elems {
		raw[i] = sets.Set{Elements: e}
	}
	return sets.NewRepository(raw)
}

// TestRefinementBoundsSound is the white-box test of the corrected iUB
// bound (DESIGN.md §2) and the iLB greedy bound: after refinement, every
// candidate's interval [lb, ub] must contain its exact semantic overlap.
// Filters are disabled so every candidate survives to be checked.
func TestRefinementBoundsSound(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		repo, model, query := randomInstance(seed)
		query = sets.Dedup(query)
		src := index.NewFuncIndex(repo.Vocabulary(), model)
		alpha := 0.55 + float64(seed%4)*0.1
		eng := NewEngine(repo, src, Options{K: 3, Alpha: alpha, DisableIUB: true})

		tuples, _ := eng.materializeStream(query, repo.TokenIDs(query), eng.getScratch())
		theta := &atomicMax{}
		var stats Stats
		survivors := eng.refinePartition(context.Background(), len(query), tuples, 0, theta, &stats, nil)

		if len(survivors) != stats.Candidates {
			t.Fatalf("seed %d: %d survivors, %d candidates (filters disabled)", seed, len(survivors), stats.Candidates)
		}
		for _, sv := range survivors {
			so := exactSO(query, repo.Set(sv.setID), model, alpha)
			if sv.lb > so+1e-9 {
				t.Fatalf("seed %d set %d: lb %v exceeds exact SO %v", seed, sv.setID, sv.lb, so)
			}
			if sv.ub < so-1e-9 {
				t.Fatalf("seed %d set %d: ub %v below exact SO %v (unsound upper bound)", seed, sv.setID, sv.ub, so)
			}
			// The greedy lower bound is a ½-approximation (Lemma 3).
			if sv.lb < so/2-1e-9 {
				t.Fatalf("seed %d set %d: lb %v below half of SO %v", seed, sv.setID, sv.lb, so)
			}
		}
	}
}

// TestLemma6Counterexample reproduces DESIGN.md §2's instance: the literal
// Lemma 6 bound (greedy score + remaining·s) drops below the exact overlap,
// while the corrected bound implemented here stays above it.
func TestLemma6Counterexample(t *testing.T) {
	ps := newPairSim()
	ps.set("q1", "c1", 0.9)
	ps.set("q1", "c2", 0.899)
	ps.set("q2", "c1", 0.899)
	// Padding vocabulary so the stream continues below 0.899 (the paper
	// bound degrades as s drops; the corrected bound must not).
	ps.set("q2", "pad", 0.6)

	repo := newTestRepo(t, [][]string{
		{"c1", "c2"},
		{"pad"},
	})
	src := index.NewFuncIndex(repo.Vocabulary(), ps)
	eng := NewEngine(repo, src, Options{K: 1, Alpha: 0.5, DisableIUB: true})

	query := []string{"q1", "q2"}
	tuples, _ := eng.materializeStream(query, repo.TokenIDs(query), eng.getScratch())
	theta := &atomicMax{}
	var stats Stats
	survivors := eng.refinePartition(context.Background(), len(query), tuples, 0, theta, &stats, nil)

	exact := exactSO(query, repo.Set(0), ps, 0.5) // 0.899 + 0.899
	if exact < 1.797 || exact > 1.799 {
		t.Fatalf("exact SO = %v, want 1.798", exact)
	}
	var c0 *survivor
	for i := range survivors {
		if survivors[i].setID == 0 {
			c0 = &survivors[i]
		}
	}
	if c0 == nil {
		t.Fatal("set 0 not a survivor")
	}
	if c0.ub < exact-1e-9 {
		t.Fatalf("corrected iUB %v below exact SO %v — the Lemma 6 flaw leaked in", c0.ub, exact)
	}
	// The literal Lemma 6 value at stream end: greedy l=1, S=0.9, s=0.6 →
	// 0.9 + min(1,1)·0.6 = 1.5 < 1.798. Confirm the flaw is real (this is
	// an assertion about the paper, not about our code).
	literal := 0.9 + 1*0.6
	if literal >= exact {
		t.Fatalf("counterexample broken: literal bound %v ≥ exact %v", literal, exact)
	}
}

// TestStreamFirstFlags: the materialized stream marks exactly the first
// arrival of each token, which the UB accounting depends on.
func TestStreamFirstFlags(t *testing.T) {
	repo, model, query := randomInstance(77)
	query = sets.Dedup(query)
	src := index.NewFuncIndex(repo.Vocabulary(), model)
	eng := NewEngine(repo, src, Options{K: 3, Alpha: 0.6})
	tuples, cache := eng.materializeStream(query, repo.TokenIDs(query), eng.getScratch())
	seen := map[int32]bool{}
	inVocab := 0
	for i, tup := range tuples {
		if tup.tokenID >= 0 {
			inVocab++
			if tup.first != !seen[tup.tokenID] {
				t.Fatalf("tuple %d: first=%v but seen=%v", i, tup.first, seen[tup.tokenID])
			}
			seen[tup.tokenID] = true
		} else if !tup.first {
			// An out-of-vocabulary query element streams exactly once (its
			// identity tuple), so it is always a first arrival.
			t.Fatalf("tuple %d: OOV identity tuple not marked first", i)
		}
		if i > 0 && tup.sim > tuples[i-1].sim+1e-9 {
			t.Fatal("materialized stream not descending")
		}
	}
	// Cache completeness: one entry per in-vocabulary tuple (tokens outside
	// the repository vocabulary occur in no set, so verification matrices
	// never look them up).
	if total := len(cache.arena); total != inVocab {
		t.Fatalf("cache has %d edges, stream had %d in-vocabulary tuples", total, inVocab)
	}
	for tid := int32(0); tid < int32(repo.VocabSize()); tid++ {
		for _, ed := range cache.edges(tid) {
			if int(ed.qIdx) >= len(query) {
				t.Fatalf("token %d: edge with out-of-range query index %d", tid, ed.qIdx)
			}
		}
	}
}
