package join

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

func discovery(t *testing.T) (*Discovery, *datagen.Dataset, *datagen.Benchmark) {
	t.Helper()
	ds := datagen.GenerateDefault(datagen.OpenData, 0.02)
	bench := datagen.NewBenchmark(ds, 1)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	d := NewDiscovery(ds.Repo, src, Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true})
	return d, ds, bench
}

func TestRunWorkload(t *testing.T) {
	d, ds, bench := discovery(t)
	var workload [][]string
	for _, q := range bench.Queries {
		workload = append(workload, q.Elements)
	}
	if len(workload) < 3 {
		t.Skip("benchmark too small")
	}
	workload = workload[:3]
	results := d.Run(workload)
	if len(results) != 3 {
		t.Fatalf("got %d result lists", len(results))
	}
	for qi, matches := range results {
		if len(matches) == 0 {
			t.Fatalf("query %d found nothing (self set exists)", qi)
		}
		// The source set must appear at the top with at least its own
		// cardinality.
		src := bench.Queries[qi].SourceSet
		found := false
		for _, m := range matches {
			if m.QueryIdx != qi {
				t.Fatalf("match carries wrong query index %d", m.QueryIdx)
			}
			if m.SetID == src {
				found = true
			}
			if !m.Verified {
				t.Fatal("ExactScores not honored")
			}
		}
		if !found {
			t.Fatalf("query %d: source set %d not among top-5", qi, src)
		}
		if matches[0].Score < float64(len(sets.Dedup(workload[qi])))-1e-9 {
			t.Fatalf("query %d: top score %v below self overlap", qi, matches[0].Score)
		}
		_ = ds
	}
}

func TestMappingSelfJoin(t *testing.T) {
	d, ds, bench := discovery(t)
	q := bench.Queries[0]
	pairs, err := d.Mapping(q.Elements, q.SourceSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(sets.Dedup(q.Elements)) {
		t.Fatalf("self join mapped %d of %d elements", len(pairs), len(sets.Dedup(q.Elements)))
	}
	for _, p := range pairs {
		if p.QueryElement != p.SetElement || p.Sim != 1 {
			t.Fatalf("self join produced non-identity pair %+v", p)
		}
	}
	_ = ds
}

func TestMappingSemanticPairs(t *testing.T) {
	// Build a tiny repo with a known semantic correspondence.
	ds := datagen.GenerateDefault(datagen.OpenData, 0.02)
	m := ds.Model
	// Find a cluster with ≥2 covered members.
	byCluster := map[int][]string{}
	for _, tok := range m.Tokens() {
		if m.Covered(tok) {
			byCluster[m.Cluster(tok)] = append(byCluster[m.Cluster(tok)], tok)
		}
	}
	var a, b string
	for _, members := range byCluster {
		if len(members) >= 2 && m.Sim(members[0], members[1]) >= 0.8 {
			a, b = members[0], members[1]
			break
		}
	}
	if a == "" {
		t.Skip("no high-similarity cluster pair at this scale")
	}
	repo := sets.NewRepository([]sets.Set{{Name: "target", Elements: []string{b, "unrelated-token"}}})
	src := index.NewExact(append(repo.Vocabulary(), a), m.Vector)
	d := NewDiscovery(repo, src, Options{K: 1, Alpha: 0.8})
	pairs, err := d.Mapping([]string{a}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].SetElement != b {
		t.Fatalf("mapping = %+v, want %s→%s", pairs, a, b)
	}
	if pairs[0].Sim < 0.8 {
		t.Fatalf("pair sim %v below α", pairs[0].Sim)
	}
}

func TestMappingValidation(t *testing.T) {
	d, _, bench := discovery(t)
	if _, err := d.Mapping(bench.Queries[0].Elements, -1); err == nil {
		t.Fatal("negative set id accepted")
	}
	if _, err := d.Mapping(bench.Queries[0].Elements, 1<<30); err == nil {
		t.Fatal("out-of-range set id accepted")
	}
	// A query with no relation to the target yields an empty mapping.
	pairs, err := d.Mapping([]string{"zz-unrelated-1", "zz-unrelated-2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("unrelated mapping = %+v", pairs)
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	d, _, _ := discovery(t)
	if got := d.Run(nil); len(got) != 0 {
		t.Fatalf("empty workload returned %v", got)
	}
}
