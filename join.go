package koios

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/index"
)

// JoinPair is one element correspondence of a join mapping: a query element
// matched to a set element with their similarity.
type JoinPair struct {
	QueryElement string
	SetElement   string
	Sim          float64
}

// SearchWorkload runs one top-k search per workload query against one
// consistent snapshot of the collection, sharing the engine's indexes and
// running up to parallelism queries concurrently (default 4 when ≤ 0).
// Result lists are indexed like the workload — the joinable-dataset-
// discovery task of the paper's introduction at workload scale.
func (e *Engine) SearchWorkload(workload [][]string, parallelism int) [][]Result {
	if parallelism <= 0 {
		parallelism = 4
	}
	out, _, _ := e.searchBatch(context.Background(), workload, parallelism)
	return out
}

// JoinMapping computes the optimal one-to-one element mapping between a
// query and a collection set — the value-level join that realizes the
// semantic overlap, sorted by descending similarity. After discovering
// joinable sets with Search, JoinMapping tells the caller *how* to join
// them (the task SEMA-JOIN addresses post-discovery; §IX of the paper).
// setID is the SetID a Search result (or Insert) reported.
func (e *Engine) JoinMapping(query []string, setID int) ([]JoinPair, error) {
	rec, ok := e.mgr.SetByID(int64(setID))
	if !ok {
		return nil, fmt.Errorf("koios: set %d is not in the live collection", setID)
	}
	g := index.NewAlphaGraph(e.mgr.Source(), e.mgr.Options().Alpha, query, rec.Elements)
	match := g.Match().Match
	pairs := []JoinPair{}
	for _, ed := range g.Edges {
		if match[ed.Q] == int(ed.C) {
			pairs = append(pairs, JoinPair{QueryElement: g.A[ed.Q], SetElement: g.B[ed.C], Sim: ed.W})
		}
	}
	slices.SortFunc(pairs, func(a, b JoinPair) int {
		if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
			return c
		}
		return cmp.Compare(a.QueryElement, b.QueryElement)
	})
	return pairs, nil
}
