package baseline

import (
	"sort"

	"repro/internal/index"
	"repro/internal/sets"
)

// VanillaTopK runs the classical top-k set overlap search: candidates come
// from the inverted index on exact query tokens and the score is |Q ∩ C|.
// It is the syntactic comparison point of the quality experiment (Fig. 8)
// and the special case of semantic overlap with the equality similarity
// (§II).
func VanillaTopK(repo *sets.Repository, inv *index.Inverted, query []string, k int) []Result {
	query = sets.Dedup(query)
	counts := make(map[int32]int)
	for _, q := range query {
		for _, sid := range inv.Sets(q) {
			counts[sid]++
		}
	}
	out := make([]Result, 0, len(counts))
	for sid, c := range counts {
		out = append(out, Result{SetID: int(sid), Score: float64(c)})
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
