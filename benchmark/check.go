package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

// checkOutputs is the correctness check of a run, made after the timed
// section and outside every metric. For every collection it requires the
// live sets to equal the op-list model (every round ends with the seed sets
// live again), and re-answers every checkEvery-th distinct query with an
// engine built from scratch over those sets: the served answer must name the
// same sets with bit-identical scores. A durable stack is then closed and
// recovered from its directory and has to pass the same check again — every
// acknowledged write readable after a restart.
func checkOutputs(st *stack) error {
	if err := checkServed(st); err != nil {
		return err
	}
	if st.dir == "" {
		return nil
	}
	if err := st.reopen(); err != nil {
		return err
	}
	if err := checkServed(st); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	return nil
}

func checkServed(st *stack) error {
	w := st.w
	ref, repo := scratchEngine(w, w.seedSets)
	want := make(map[int][]core.Result)
	for qi := 0; qi < len(w.queries); qi += w.spec.checkEvery {
		want[qi], _ = ref.Search(w.queries[qi])
	}
	for ci, name := range w.collections {
		live := st.collection(ci).Manager().LiveSets()
		if len(live) != len(w.seedSets) {
			return fmt.Errorf("collection %s: %d live sets, the op list leaves %d", name, len(live), len(w.seedSets))
		}
		for i, rec := range live {
			if m := w.seedSets[i]; rec.Name != m.Name || !slices.Equal(rec.Elements, m.Elements) {
				return fmt.Errorf("collection %s: live set %d is %q, the op list leaves %q (or its elements differ)", name, i, rec.Name, m.Name)
			}
		}
		for qi, exp := range want {
			resp, err := st.clients[ci].Search(w.queries[qi], 0)
			if err != nil {
				return fmt.Errorf("collection %s: query %d: %w", name, qi, err)
			}
			if len(resp.Results) != len(exp) {
				return fmt.Errorf("collection %s: query %d: %d results, from scratch %d", name, qi, len(resp.Results), len(exp))
			}
			for rank, got := range resp.Results {
				e := exp[rank]
				if got.SetName != repo.Set(e.SetID).Name {
					return fmt.Errorf("collection %s: query %d rank %d: set %q, from scratch %q", name, qi, rank, got.SetName, repo.Set(e.SetID).Name)
				}
				if math.Float64bits(got.Score) != math.Float64bits(e.Score) {
					return fmt.Errorf("collection %s: query %d rank %d (%s): score %v, from scratch %v", name, qi, rank, got.SetName, got.Score, e.Score)
				}
			}
		}
	}
	return nil
}

// scratchEngine builds the reference: a single-repository engine over rows
// with the static counterpart of the workload's source, sharing nothing with
// the served stack but the similarity function.
func scratchEngine(w *workload, rows []sets.Set) (*core.Engine, *sets.Repository) {
	repo := sets.NewRepository(rows)
	var src index.NeighborSource
	if w.spec.source == editSource {
		src = index.NewFuncIndex(repo.Vocabulary(), sim.EditSimilarity{})
	} else {
		src = index.NewExact(repo.Vocabulary(), w.ds.Model.Vector)
	}
	return core.NewEngine(repo, src, servingOptions()), repo
}
