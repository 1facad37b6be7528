package baseline

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sets"
)

// GreedyTopK scores every candidate with the greedy matching instead of the
// exact matching and returns the top-k by greedy score. Greedy is a
// ½-approximation, so this search is *not* exact — Example 2 of the paper
// shows it ranking C1 above C2 — and it exists to quantify that gap in the
// ablation benches.
func GreedyTopK(repo *sets.Repository, inv *index.Inverted, src index.NeighborSource, query []string, k int, alpha float64) []Result {
	query = sets.Dedup(query)
	if len(query) == 0 {
		return nil
	}
	stream := index.NewStream(query, src, alpha)
	defer stream.Release()
	// Per-candidate greedy state, exactly the iLB machinery of refinement:
	// consuming the descending stream with both-endpoints-free admission IS
	// the greedy matching, so the final lb of each candidate is its full
	// greedy matching score.
	type state struct {
		score   float64
		qMask   []uint64
		matched map[string]struct{}
	}
	qWords := (len(query) + 63) / 64
	cands := make(map[int32]*state)
	for {
		tup, ok := stream.Next()
		if !ok {
			break
		}
		for _, sid := range inv.Sets(tup.Token) {
			st := cands[sid]
			if st == nil {
				st = &state{qMask: make([]uint64, qWords), matched: make(map[string]struct{}, 2)}
				cands[sid] = st
			}
			w, bit := tup.QIdx/64, uint64(1)<<(tup.QIdx%64)
			if st.qMask[w]&bit == 0 {
				if _, used := st.matched[tup.Token]; !used {
					st.qMask[w] |= bit
					st.matched[tup.Token] = struct{}{}
					st.score += tup.Sim
				}
			}
		}
	}
	out := make([]Result, 0, len(cands))
	for sid, st := range cands {
		out = append(out, Result{SetID: int(sid), Score: st.score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].SetID < out[j].SetID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ExactSO is the semantic overlap of the query and the set with the given
// ID by the reference model (internal/model), over src's exhaustive pair
// scorer — a convenience for examples and the quality experiment, not used
// in the search loop. An approximate source's neighbour lists define no
// exact overlap, so src must be exhaustive.
func ExactSO(repo *sets.Repository, id int, query []string, src index.CompleteScorer, alpha float64) float64 {
	so, err := model.Score(query, repo.Elements(id), scorerSim{src}, alpha)
	if err != nil {
		panic(fmt.Sprintf("baseline: ExactSO: %v", err))
	}
	return so
}

// scorerSim is an exhaustive pair scorer as a similarity function: 1
// between equal tokens, as the stream's identity tuples score them.
type scorerSim struct{ index.CompleteScorer }

func (s scorerSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return s.PairSim(a, b)
}
func (scorerSim) Name() string { return "source" }
