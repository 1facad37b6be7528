// Package baseline implements the comparison systems of the paper's
// evaluation (§VIII-A4, §VIII-E):
//
//   - Baseline: candidate generation through the token stream, then an
//     exact bipartite graph matching for every candidate, parallelized over
//     a worker pool — no Koios filters;
//   - Baseline+: Baseline with the iUB filter activated to thin the
//     candidate set (the paper needs it to make WDC feasible at all);
//   - VanillaTopK: top-k search by vanilla (exact-match) overlap, the
//     comparison point of the quality experiment (Fig. 8);
//   - GreedyTopK: top-k by greedy matching score, the non-exact strategy
//     that Example 2 shows ranking C1 above C2.
//
// Baseline is deliberately independent from internal/core — it shares only
// the substrates — so the two implementations cross-validate each other in
// tests.
package baseline

import (
	"sort"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/pqueue"
	"repro/internal/sets"
)

// Result is one scored set.
type Result struct {
	SetID int
	Score float64
}

// Stats reports the baseline's work for the response-time and pruning
// comparisons.
type Stats struct {
	Candidates   int
	IUBPruned    int // Baseline+ only
	EMs          int
	StreamTuples int
	Response     time.Duration
	MemBytes     int64
}

// Options configure a baseline search.
type Options struct {
	K       int
	Alpha   float64
	Workers int
	// UseIUB activates the iUB filter (Baseline+).
	UseIUB bool
	// Timeout aborts the search after the given duration (the paper uses a
	// 2500 s query timeout); zero means no timeout. A timed-out search
	// returns nil results and TimedOut=true in the stats.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.8
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// edge is a cached α-edge to a query element.
type edge struct {
	qIdx int32
	sim  float64
}

// candidate accumulates per-set bounds for Baseline+.
type candidate struct {
	id      int
	ubSum   float64
	slots   int
	lb      float64
	qMask   []uint64
	matched map[string]struct{}
}

// Search runs the baseline top-k semantic overlap search.
func Search(repo *sets.Repository, inv *index.Inverted, src index.NeighborSource, query []string, opts Options) ([]Result, Stats, bool) {
	opts = opts.withDefaults()
	start := time.Now()
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	var stats Stats
	query = sets.Dedup(query)
	if len(query) == 0 {
		return nil, stats, false
	}

	// Candidate generation via the token stream (the baseline's refinement
	// phase), caching every similarity for the matching matrices.
	stream := index.NewStream(query, src, opts.Alpha)
	defer stream.Release()
	cache := make(map[string][]edge)
	cands := make(map[int32]*candidate)
	qWords := (len(query) + 63) / 64
	seenTok := make(map[string]bool)
	for {
		tup, ok := stream.Next()
		if !ok {
			break
		}
		stats.StreamTuples++
		first := !seenTok[tup.Token]
		seenTok[tup.Token] = true
		cache[tup.Token] = append(cache[tup.Token], edge{qIdx: int32(tup.QIdx), sim: tup.Sim})
		stats.MemBytes += int64(len(tup.Token)) + 40
		for _, sid := range inv.Sets(tup.Token) {
			c := cands[sid]
			if c == nil {
				c = &candidate{
					id:    int(sid),
					slots: min(len(query), len(repo.Set(int(sid)).ElemIDs)),
				}
				if opts.UseIUB {
					c.qMask = make([]uint64, qWords)
					c.matched = make(map[string]struct{}, 2)
				}
				cands[sid] = c
				stats.Candidates++
			}
			if !opts.UseIUB {
				continue
			}
			if first && c.slots > 0 {
				c.ubSum += tup.Sim
				c.slots--
			}
			w, bit := tup.QIdx/64, uint64(1)<<(tup.QIdx%64)
			if c.qMask[w]&bit == 0 {
				if _, used := c.matched[tup.Token]; !used {
					c.qMask[w] |= bit
					c.matched[tup.Token] = struct{}{}
					c.lb += tup.Sim
				}
			}
		}
	}

	// Baseline+ refinement: θlb from the top-k greedy lower bounds, then a
	// single pruning pass over the final upper bounds.
	var thetaLB float64
	if opts.UseIUB {
		top := pqueue.NewTopK(opts.K)
		for _, c := range cands {
			top.Update(c.id, c.lb)
		}
		thetaLB = top.Bottom()
	}

	var order []*candidate
	for _, c := range cands {
		if opts.UseIUB && thetaLB > 0 && c.ubSum < thetaLB-1e-9 {
			stats.IUBPruned++
			continue
		}
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	stats.MemBytes += int64(len(cands)) * 96

	// Post-processing: exact matching for every remaining candidate on a
	// worker pool. Baseline+ re-checks the upper bound against the current
	// θlb before dispatching each matching.
	var mu sync.Mutex
	top := pqueue.NewTopK(opts.K)
	scores := make(map[int]float64)
	timedOut := false
	jobs := make(chan *candidate)
	vocab := repo.Vocabulary()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				res := verify(repo.Set(c.id), vocab, query, cache)
				mu.Lock()
				stats.EMs++
				scores[c.id] = res.Score
				if res.Score > 0 && top.Update(c.id, res.Score) && opts.UseIUB {
					if b := top.Bottom(); b > thetaLB {
						thetaLB = b
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range order {
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		if opts.UseIUB {
			mu.Lock()
			t := thetaLB
			mu.Unlock()
			if t > 0 && c.ubSum < t-1e-9 {
				stats.IUBPruned++
				continue
			}
		}
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	stats.Response = time.Since(start)
	if timedOut {
		return nil, stats, true
	}

	keys, vals := top.Entries()
	out := make([]Result, len(keys))
	for i := range keys {
		out[i] = Result{SetID: keys[i], Score: vals[i]}
	}
	return out, stats, false
}

// verify builds the reduced similarity matrix from cached edges and solves
// it exactly (no early termination: the baseline has no filters).
func verify(c sets.Set, vocab []string, query []string, cache map[string][]edge) matching.Result {
	rowOf := make(map[int32]int)
	var rows []int32
	type col struct{ edges []edge }
	var cols []col
	for _, id := range c.ElemIDs {
		edges := cache[vocab[id]]
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
	return matching.Hungarian(w)
}
