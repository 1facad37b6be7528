package koios

import (
	"fmt"
	"sort"

	"repro/internal/sets"
)

// ManyToOneOverlap implements the measure the paper sketches as future work
// (§X): a many-to-one mapping M : a → b where several elements of a may map
// to the same element of b, covering noise and spelling variations *within*
// the query ("United States of America" and "United States" both mapping to
// "USA" with their full similarities).
//
// Dropping the one-to-one constraint makes the optimization separable: each
// element of a independently takes its best α-edge, so the measure is
//
//	MO(a, b) = Σ_{x∈a} max_{y∈b} simα(x, y)
//
// computable in O(|a|·|b|) without graph matching. It upper-bounds the
// (one-to-one) SemanticOverlap and is *not* symmetric — both properties are
// verified in tests.
func ManyToOneOverlap(a, b []string, fn Similarity, alpha float64) float64 {
	a, b = sets.Dedup(a), sets.Dedup(b)
	total := 0.0
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := fn.Sim(x, y); s >= alpha && s > best {
				best = s
			}
		}
		total += best
	}
	return total
}

// ManyToOneMapping returns the mapping realizing ManyToOneOverlap: for each
// element of a with at least one α-edge, its best match in b. Ties pick the
// lexicographically smallest target for determinism.
func ManyToOneMapping(a, b []string, fn Similarity, alpha float64) map[string]string {
	a, b = sets.Dedup(a), sets.Dedup(b)
	sorted := append([]string(nil), b...)
	sort.Strings(sorted)
	out := make(map[string]string)
	for _, x := range a {
		best, bestSim := "", 0.0
		for _, y := range sorted {
			if s := fn.Sim(x, y); s >= alpha && s > bestSim {
				best, bestSim = y, s
			}
		}
		if best != "" {
			out[x] = best
		}
	}
	return out
}

// SearchManyToOne ranks the engine's collection by ManyToOneOverlap with the
// query. Because the measure is separable it needs no matching phase; this
// exists to experiment with the future-work semantics, not as a replacement
// for Search (the measures rank differently — see the tests).
func (e *Engine) SearchManyToOne(query []string, fn Similarity, alpha float64, k int) []Result {
	query = sets.Dedup(query)
	if len(query) == 0 || k <= 0 {
		return nil
	}
	type scored struct {
		id    int64
		name  string
		score float64
	}
	var all []scored
	for _, s := range e.mgr.LiveSets() {
		if sc := ManyToOneOverlap(query, s.Elements, fn, alpha); sc > 0 {
			all = append(all, scored{id: s.ID, name: s.Name, score: sc})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Result, len(all))
	for i, s := range all {
		out[i] = Result{SetID: int(s.id), SetName: s.name, Score: s.score, Verified: true}
	}
	return out
}

// CheckSimilarity property-tests a user-provided Similarity on sample
// tokens against the contract of Def. 1 — symmetry, range [0,1], and
// identity ⇒ 1 — returning a description of the first violation, or "".
// The search engine assumes these properties; a violating function produces
// undefined rankings, so run this once over a vocabulary sample when wiring
// a custom similarity.
func CheckSimilarity(fn Similarity, sample []string) string {
	for i, a := range sample {
		if got := fn.Sim(a, a); got != 1 {
			return violation("identity", a, a, got)
		}
		for _, b := range sample[i+1:] {
			ab, ba := fn.Sim(a, b), fn.Sim(b, a)
			if ab != ba {
				return violation("symmetry", a, b, ab)
			}
			if ab < 0 || ab > 1 {
				return violation("range", a, b, ab)
			}
		}
	}
	return ""
}

func violation(prop, a, b string, got float64) string {
	return fmt.Sprintf("similarity violates %s on (%q, %q): got %v", prop, a, b, got)
}
