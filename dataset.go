package koios

import (
	"fmt"

	"repro/internal/datagen"
)

// Dataset is a synthesized evaluation corpus: a collection of sets, the
// embedding vectors defining its semantic structure, and benchmark queries
// grouped by cardinality interval (interval -1 for uniform benchmarks).
// GenerateDataset reproduces the shape of the paper's four corpora — see
// DESIGN.md §4 for the substitution rationale.
type Dataset struct {
	Name       string
	Collection []Set
	Vectors    VectorFunc
	// Queries are benchmark query sets; Intervals[i] is the [lo,hi)
	// cardinality range of interval i.
	Queries   []DatasetQuery
	Intervals [][2]int
}

// DatasetQuery is one benchmark query.
type DatasetQuery struct {
	Elements []string
	// Interval indexes Dataset.Intervals, or -1 for uniform benchmarks.
	Interval int
	// SourceSet is the collection index the query was sampled from.
	SourceSet int
}

// GenerateDataset synthesizes one of the paper's evaluation datasets:
// kind ∈ {"dblp", "opendata", "twitter", "wdc"}. scale multiplies the
// default set count and vocabulary (1.0 is the documented benchmark scale;
// use ~0.1 for quick experiments).
func GenerateDataset(kind string, scale float64) (*Dataset, error) {
	k, err := datagen.ParseKind(kind)
	if err != nil {
		return nil, fmt.Errorf("koios: %w", err)
	}
	ds := datagen.GenerateDefault(k, scale)
	bench := datagen.NewBenchmark(ds, ds.Spec.Seed+1)
	out := &Dataset{
		Name:      kind,
		Vectors:   ds.Model.Vector,
		Intervals: bench.Intervals,
	}
	for _, s := range ds.Repo.Sets() {
		out.Collection = append(out.Collection, Set{Name: s.Name, Elements: s.Elements})
	}
	for _, q := range bench.Queries {
		out.Queries = append(out.Queries, DatasetQuery{
			Elements:  q.Elements,
			Interval:  q.Interval,
			SourceSet: q.SourceSet,
		})
	}
	return out, nil
}
