// Package silkmoth reimplements the SilkMoth filter–verification framework
// (Deng et al., PVLDB 2017 [13]) to the extent the paper compares against it
// (§VIII-B). SilkMoth solves the *threshold* variant of related-set search
// under maximum-matching semantics: find every set whose matching score
// reaches θ. The paper adapts it to top-k by passing the true θ*ₖ (an
// advantage Koios does not get) and keeping a top-k queue over the verified
// results; Search implements exactly that protocol.
//
// Two variants mirror the paper's comparison:
//
//   - Syntactic: the full framework — a signature prefix of the query
//     (under one-to-one matching, a set reaching θ must have a similar
//     element to one of the first |Q|−⌈θ⌉+1 query elements), candidate
//     generation only from signature probes, and the check filter (sum of
//     per-query-element maximum similarities) before verification;
//   - Semantic: the generic framework as suggested by the original authors
//     for arbitrary similarity functions — no signature reduction and no
//     similarity-specific check filter, so every candidate of every query
//     element is verified unless the trivial cardinality bound prunes it.
//
// Verification is the same Hungarian matching Koios uses, bounded by θ.
package silkmoth

import (
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/pqueue"
	"repro/internal/sets"
)

// Variant selects the framework configuration.
type Variant int

// The two SilkMoth variants of §VIII-B.
const (
	Syntactic Variant = iota
	Semantic
)

func (v Variant) String() string {
	if v == Syntactic {
		return "silkmoth-syntactic"
	}
	return "silkmoth-semantic"
}

// Options configure a SilkMoth search.
type Options struct {
	// Theta is the set-level threshold; the top-k adaptation passes θ*ₖ.
	Theta float64
	// Alpha is the element-level similarity threshold.
	Alpha float64
	// K bounds the returned results (top-k adaptation).
	K       int
	Variant Variant
}

// Result is one verified set with its exact matching score.
type Result struct {
	SetID int
	Score float64
}

// Stats reports the work performed.
type Stats struct {
	SignatureSize int
	Candidates    int
	CheckPruned   int
	Verified      int
	Response      time.Duration
}

// Search returns up to K sets with matching score ≥ Theta, best first.
func Search(repo *sets.Repository, inv *index.Inverted, src index.NeighborSource, query []string, opts Options) ([]Result, Stats) {
	start := time.Now()
	var stats Stats
	query = sets.Dedup(query)
	if len(query) == 0 || opts.K <= 0 {
		return nil, stats
	}

	// Retrieve neighbors once per query element; the edge cache backs both
	// candidate generation and the verification matrices.
	neighbors := make([][]index.Neighbor, len(query))
	cache := make(map[string][]edge)
	for i, q := range query {
		ns := src.Neighbors(q, opts.Alpha)
		neighbors[i] = ns
		cache[q] = append(cache[q], edge{qIdx: int32(i), sim: 1}) // identity
		for _, n := range ns {
			cache[n.Token] = append(cache[n.Token], edge{qIdx: int32(i), sim: n.Sim})
		}
	}

	// Signature selection: the syntactic variant probes only a prefix of
	// |Q|−⌈θ⌉+1 elements, rarest (shortest neighbor list) first; the
	// semantic variant probes everything.
	order := make([]int, len(query))
	for i := range order {
		order[i] = i
	}
	sigSize := len(query)
	if opts.Variant == Syntactic {
		sort.Slice(order, func(a, b int) bool {
			la, lb := len(neighbors[order[a]]), len(neighbors[order[b]])
			if la != lb {
				return la < lb
			}
			return order[a] < order[b]
		})
		need := len(query) - int(ceil(opts.Theta)) + 1
		if need < 1 {
			need = 1
		}
		if need < sigSize {
			sigSize = need
		}
	}
	stats.SignatureSize = sigSize

	cands := make(map[int32]bool)
	for _, qi := range order[:sigSize] {
		for _, sid := range inv.Sets(query[qi]) {
			cands[sid] = true
		}
		for _, n := range neighbors[qi] {
			for _, sid := range inv.Sets(n.Token) {
				cands[sid] = true
			}
		}
	}
	stats.Candidates = len(cands)

	ids := make([]int, 0, len(cands))
	for sid := range cands {
		ids = append(ids, int(sid))
	}
	sort.Ints(ids)

	top := pqueue.NewTopK(opts.K)
	results := make(map[int]float64)
	for _, sid := range ids {
		c := repo.Set(sid)
		if opts.Variant == Syntactic {
			// Check filter: Σ_q max-sim(q, C) is an upper bound for the
			// matching score.
			if checkBound(c, cache, len(query)) < opts.Theta-1e-9 {
				stats.CheckPruned++
				continue
			}
		} else {
			// Generic framework: only the trivial cardinality bound.
			m := len(query)
			if len(c.Elements) < m {
				m = len(c.Elements)
			}
			if float64(m) < opts.Theta-1e-9 {
				stats.CheckPruned++
				continue
			}
		}
		res := verify(c, cache, len(query), opts.Theta)
		stats.Verified++
		if res.Pruned || res.Score < opts.Theta-1e-9 {
			continue
		}
		results[sid] = res.Score
		top.Update(sid, res.Score)
	}

	keys, scores := top.Entries()
	out := make([]Result, len(keys))
	for i := range keys {
		out[i] = Result{SetID: keys[i], Score: scores[i]}
	}
	stats.Response = time.Since(start)
	return out, stats
}

type edge struct {
	qIdx int32
	sim  float64
}

// checkBound sums each query element's maximum similarity to the candidate.
func checkBound(c sets.Set, cache map[string][]edge, nq int) float64 {
	maxSim := make([]float64, nq)
	for _, tok := range c.Elements {
		for _, ed := range cache[tok] {
			if ed.sim > maxSim[ed.qIdx] {
				maxSim[ed.qIdx] = ed.sim
			}
		}
	}
	sum := 0.0
	for _, s := range maxSim {
		sum += s
	}
	return sum
}

func verify(c sets.Set, cache map[string][]edge, nq int, theta float64) matching.Result {
	rowOf := make(map[int32]int)
	var rows []int32
	type col struct{ edges []edge }
	var cols []col
	for _, tok := range c.Elements {
		edges := cache[tok]
		if len(edges) == 0 {
			continue
		}
		cols = append(cols, col{edges: edges})
		for _, ed := range edges {
			if _, ok := rowOf[ed.qIdx]; !ok {
				rowOf[ed.qIdx] = 0
				rows = append(rows, ed.qIdx)
			}
		}
	}
	if len(cols) == 0 {
		return matching.Result{}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	for i, q := range rows {
		rowOf[q] = i
	}
	w := make([][]float64, len(rows))
	for i := range w {
		w[i] = make([]float64, len(cols))
	}
	for j, ce := range cols {
		for _, ed := range ce.edges {
			w[rowOf[ed.qIdx]][j] = ed.sim
		}
	}
	// θ is a hard threshold here, so the label-sum bound may abort the
	// matching as soon as the score provably stays below θ.
	return matching.HungarianBounded(w, func() float64 { return theta })
}

func ceil(f float64) float64 {
	i := float64(int64(f))
	if f > i {
		return i + 1
	}
	return i
}
