package koios

import (
	"fmt"
	"sync"

	"repro/internal/join"
)

// JoinPair is one element correspondence of a join mapping: a query element
// matched to a set element with their similarity.
type JoinPair struct {
	QueryElement string
	SetElement   string
	Sim          float64
}

// SearchWorkload runs one top-k search per workload query, sharing the
// engine's indexes and running up to parallelism queries concurrently
// (default 4 when ≤ 0). Result lists are indexed like the workload — the
// joinable-dataset-discovery task of the paper's introduction at workload
// scale. The workload runs against the engine's live collection; each
// query observes a consistent snapshot.
func (e *Engine) SearchWorkload(workload [][]string, parallelism int) [][]Result {
	if parallelism <= 0 {
		parallelism = 4
	}
	out := make([][]Result, len(workload))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for qi, q := range workload {
		wg.Add(1)
		go func(qi int, q []string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[qi], _ = e.Search(q)
		}(qi, q)
	}
	wg.Wait()
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
	pairs := join.MappingBetween(e.mgr.Source(), e.mgr.Options().Alpha, query, rec.Elements)
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{QueryElement: p.QueryElement, SetElement: p.SetElement, Sim: p.Sim}
	}
	return out, nil
}
