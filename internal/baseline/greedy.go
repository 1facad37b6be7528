package baseline

import (
	"sort"

	"repro/internal/index"
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

// ExactSO verifies one query/set pair with the Hungarian algorithm over an
// arbitrary neighbor source — a convenience for examples and the quality
// experiment, not used in the search loop.
func ExactSO(c sets.Set, query []string, src index.NeighborSource, alpha float64) float64 {
	query = sets.Dedup(query)
	stream := index.NewStream(query, src, alpha)
	cache := make(map[string][]edge)
	for {
		tup, ok := stream.Next()
		if !ok {
			break
		}
		cache[tup.Token] = append(cache[tup.Token], edge{qIdx: int32(tup.QIdx), sim: tup.Sim})
	}
	return verify(c, query, cache).Score
}
