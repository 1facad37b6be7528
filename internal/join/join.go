// Package join builds on the Koios engine to answer *workloads* of top-k
// semantic overlap searches — the joinable-dataset-discovery task that
// motivates the paper's introduction: for each query column in a workload,
// find the k most joinable columns of a repository, and optionally the
// element mapping that realizes each join (the role SEMA-JOIN plays after
// discovery, §IX).
//
// The engine, its partition layout, and its similarity index are built once
// and shared across the workload; queries run on a bounded worker pool.
package join

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
)

// Match is one discovered joinable set.
type Match struct {
	// QueryIdx indexes the workload.
	QueryIdx int
	// SetID and SetName identify the repository set.
	SetID   int
	SetName string
	// Score is the semantic overlap.
	Score float64
	// Verified reports whether Score is exact.
	Verified bool
}

// Options configure a workload run.
type Options struct {
	// K, Alpha, Partitions, Workers mirror core.Options.
	K          int
	Alpha      float64
	Partitions int
	Workers    int
	// QueryParallelism bounds concurrently running workload queries.
	// Default 4.
	QueryParallelism int
	// ExactScores verifies every returned match.
	ExactScores bool
}

func (o Options) withDefaults() Options {
	if o.QueryParallelism <= 0 {
		o.QueryParallelism = 4
	}
	return o
}

// Discovery runs top-k semantic overlap workloads over one repository.
type Discovery struct {
	repo *sets.Repository
	src  index.NeighborSource
	eng  *core.Engine
	opts Options
}

// NewDiscovery prepares a discovery engine.
func NewDiscovery(repo *sets.Repository, src index.NeighborSource, opts Options) *Discovery {
	opts = opts.withDefaults()
	return &Discovery{
		repo: repo,
		src:  src,
		opts: opts,
		eng: core.NewEngine(repo, src, core.Options{
			K:           opts.K,
			Alpha:       opts.Alpha,
			Partitions:  opts.Partitions,
			Workers:     opts.Workers,
			ExactScores: opts.ExactScores,
		}),
	}
}

// Run searches every workload query and returns the per-query matches,
// indexed like the workload. Queries run concurrently up to
// QueryParallelism; the engine is safe for concurrent searches.
func (d *Discovery) Run(workload [][]string) [][]Match {
	out := make([][]Match, len(workload))
	sem := make(chan struct{}, d.opts.QueryParallelism)
	var wg sync.WaitGroup
	for qi, q := range workload {
		wg.Add(1)
		go func(qi int, q []string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results, _ := d.eng.Search(q)
			matches := make([]Match, len(results))
			for i, r := range results {
				matches[i] = Match{
					QueryIdx: qi,
					SetID:    r.SetID,
					SetName:  d.repo.Set(r.SetID).Name,
					Score:    r.Score,
					Verified: r.Verified,
				}
			}
			out[qi] = matches
		}(qi, q)
	}
	wg.Wait()
	return out
}

// Pair is one element correspondence of a join mapping.
type Pair struct {
	QueryElement string
	SetElement   string
	Sim          float64
}

// Mapping computes the optimal one-to-one element mapping between a query
// and a repository set — the value-level join SEMA-JOIN produces after
// discovery, here derived from the same maximum matching that defines the
// semantic overlap. Pairs are sorted by descending similarity.
func (d *Discovery) Mapping(query []string, setID int) ([]Pair, error) {
	if setID < 0 || setID >= d.repo.Len() {
		return nil, fmt.Errorf("join: set %d out of range [0,%d)", setID, d.repo.Len())
	}
	return MappingBetween(d.src, d.opts.Alpha, query, d.repo.Elements(setID)), nil
}

// MappingBetween computes the optimal one-to-one element mapping between a
// query and an explicit target set, using src for the α-edges — the core of
// Mapping, usable without a Discovery (the segmented public engine resolves
// its sets by handle and calls this directly).
func MappingBetween(src index.NeighborSource, alpha float64, query, target []string) []Pair {
	query = sets.Dedup(query)

	// Edges from the shared neighbor source plus identity matches.
	inTarget := make(map[string]int, len(target))
	for j, e := range target {
		inTarget[e] = j
	}
	var edges []matching.Edge
	for i, q := range query {
		if j, ok := inTarget[q]; ok {
			edges = append(edges, matching.Edge{Q: i, C: j, W: 1})
		}
		for _, n := range src.Neighbors(q, alpha) {
			if j, ok := inTarget[n.Token]; ok && n.Token != q {
				edges = append(edges, matching.Edge{Q: i, C: j, W: n.Sim})
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}
	var solver matching.SparseSolver
	match := solver.Solve(len(query), len(target), edges, nil).Match
	var pairs []Pair
	for _, e := range edges {
		if match[e.Q] == e.C {
			pairs = append(pairs, Pair{QueryElement: query[e.Q], SetElement: target[e.C], Sim: e.W})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Sim != pairs[b].Sim {
			return pairs[a].Sim > pairs[b].Sim
		}
		return pairs[a].QueryElement < pairs[b].QueryElement
	})
	return pairs
}
