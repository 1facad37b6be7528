package datagen

import (
	"math/rand"

	"repro/internal/sets"
)

// Query is one benchmark query: the elements of a sampled set plus the
// interval it was drawn from.
type Query struct {
	// SourceSet is the repository set the query was sampled from.
	SourceSet int
	// Interval indexes Benchmark.Intervals, or -1 for uniform benchmarks.
	Interval int
	Elements []string
}

// Benchmark is a collection of query sets, grouped by cardinality interval
// for the skewed datasets (OpenData, WDC) and sampled uniformly otherwise
// (§VIII-A2: "sampling by interval prevents the benchmarks from being biased
// towards small sets").
type Benchmark struct {
	Kind      Kind
	Intervals [][2]int // nil for uniform benchmarks
	Queries   []Query
}

// NewBenchmark samples queries from the dataset according to its spec:
// QueriesPerInterval sets per interval with uniform random sampling inside
// each interval, or QueriesPerInterval sets overall when the spec has no
// intervals. Sampling is deterministic in seed.
func NewBenchmark(ds *Dataset, seed int64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	b := &Benchmark{Kind: ds.Kind, Intervals: ds.Spec.QueryIntervals}
	if b.Intervals == nil {
		ids := rng.Perm(ds.Repo.Len())
		count := ds.Spec.QueriesPerInterval
		for _, id := range ids {
			if count == 0 {
				break
			}
			if len(ds.Repo.Set(id).ElemIDs) == 0 {
				continue
			}
			b.Queries = append(b.Queries, Query{SourceSet: id, Interval: -1, Elements: ds.Repo.Elements(id)})
			count--
		}
		return b
	}
	byInterval := make([][]int, len(b.Intervals))
	for id := 0; id < ds.Repo.Len(); id++ {
		card := len(ds.Repo.Set(id).ElemIDs)
		for i, iv := range b.Intervals {
			if card >= iv[0] && card < iv[1] {
				byInterval[i] = append(byInterval[i], id)
				break
			}
		}
	}
	for i, pool := range byInterval {
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		n := ds.Spec.QueriesPerInterval
		if n > len(pool) {
			n = len(pool)
		}
		for _, id := range pool[:n] {
			b.Queries = append(b.Queries, Query{SourceSet: id, Interval: i, Elements: ds.Repo.Elements(id)})
		}
	}
	return b
}

// Dirty returns a copy of the benchmark with a fraction of each query's
// elements replaced by a same-cluster sibling token (a synonym or typo
// variant from the embedding model) that is not already in the query. This
// models the paper's motivating scenario — queries over dirty or
// differently-standardized data — where vanilla overlap degrades but
// semantic overlap holds (Fig. 8). Elements whose cluster has no usable
// sibling are kept. Deterministic in seed.
func (b *Benchmark) Dirty(ds *Dataset, noiseRate float64, seed int64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	byCluster := make(map[int][]string)
	for _, tok := range ds.Model.Tokens() {
		c := ds.Model.Cluster(tok)
		byCluster[c] = append(byCluster[c], tok)
	}
	out := &Benchmark{Kind: b.Kind, Intervals: b.Intervals}
	for _, q := range b.Queries {
		inQuery := make(map[string]bool, len(q.Elements))
		for _, el := range q.Elements {
			inQuery[el] = true
		}
		elems := make([]string, len(q.Elements))
		for i, el := range q.Elements {
			elems[i] = el
			if rng.Float64() >= noiseRate {
				continue
			}
			siblings := byCluster[ds.Model.Cluster(el)]
			// Random start offset for determinism without bias.
			if len(siblings) < 2 {
				continue
			}
			start := rng.Intn(len(siblings))
			for off := 0; off < len(siblings); off++ {
				cand := siblings[(start+off)%len(siblings)]
				if cand != el && !inQuery[cand] {
					elems[i] = cand
					inQuery[cand] = true
					break
				}
			}
		}
		out.Queries = append(out.Queries, Query{SourceSet: q.SourceSet, Interval: q.Interval, Elements: elems})
	}
	return out
}

// ByInterval groups the benchmark queries by interval index. Uniform
// benchmarks return a single group keyed -1.
func (b *Benchmark) ByInterval() map[int][]Query {
	out := make(map[int][]Query)
	for _, q := range b.Queries {
		out[q.Interval] = append(out[q.Interval], q)
	}
	return out
}

// Stats re-exports the repository stats for Table I convenience.
func (ds *Dataset) Stats() sets.Stats { return ds.Repo.Stats() }
