package koios

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sets"
)

func TestSearchWorkload(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewWithVectors(ds.Collection, ds.Vectors, Config{K: 3, Alpha: 0.8, ExactScores: true})
	t.Run("run_workload", func(t *testing.T) { checkWorkloadRun(t, eng, ds) })
	t.Run("empty_workload", func(t *testing.T) {
		if got := eng.SearchWorkload(nil, 0); len(got) != 0 {
			t.Fatalf("empty workload returned %v", got)
		}
	})
}

// checkWorkloadRun searches the first four dataset queries as one workload
// and checks each answer list against its source set and a direct search.
func checkWorkloadRun(t *testing.T, eng *Engine, ds *Dataset) {
	var workload [][]string
	for _, q := range ds.Queries[:4] {
		workload = append(workload, q.Elements)
	}
	results := eng.SearchWorkload(workload, 2)
	if len(results) != 4 {
		t.Fatalf("got %d result lists", len(results))
	}
	for qi, rs := range results {
		if len(rs) == 0 {
			t.Fatalf("workload query %d found nothing", qi)
		}
		// The query's source set is among the answers, and the best score
		// is at least the query's overlap with itself.
		src := ds.Queries[qi].SourceSet
		if !slices.ContainsFunc(rs, func(r Result) bool { return r.SetID == src }) {
			t.Fatalf("workload query %d: source set %d not among the top 3", qi, src)
		}
		if rs[0].Score < float64(len(sets.Dedup(workload[qi])))-tol {
			t.Fatalf("workload query %d: top score %v below its self overlap", qi, rs[0].Score)
		}
		// Must agree with a standalone search.
		direct, _ := eng.Search(workload[qi])
		if len(direct) != len(rs) {
			t.Fatalf("workload and direct search disagree in size for query %d", qi)
		}
		for i := range rs {
			if math.Abs(rs[i].Score-direct[i].Score) > tol {
				t.Fatalf("workload and direct scores differ at query %d rank %d", qi, i)
			}
			if !rs[i].Verified {
				t.Fatalf("workload query %d rank %d: ExactScores not honoured", qi, i)
			}
		}
	}
}

func TestJoinMappingFigure1(t *testing.T) {
	eng := New(demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7})
	pairs, err := eng.JoinMapping(figure1Query, 1) // C2
	if err != nil {
		t.Fatal(err)
	}
	// The optimal matching of Fig. 1: LA→LA, Blaine→Blain,
	// BigApple→NewYorkCity, and the {Columbia, Charleston}→{SC, Southern}
	// rematch that greedy misses.
	got := map[string]string{}
	sum := 0.0
	for _, p := range pairs {
		got[p.QueryElement] = p.SetElement
		sum += p.Sim
	}
	if got["LA"] != "LA" || got["Blaine"] != "Blain" || got["BigApple"] != "NewYorkCity" {
		t.Fatalf("mapping = %v", got)
	}
	if got["Columbia"] != "SC" || got["Charleston"] != "Southern" {
		t.Fatalf("optimal rematch missing: %v", got)
	}
	if math.Abs(sum-4.49) > tol {
		t.Fatalf("mapping weight = %v, want the semantic overlap 4.49", sum)
	}
	if _, err := eng.JoinMapping(figure1Query, 99); err == nil {
		t.Fatal("out-of-range set accepted")
	}
}

func TestJoinMapping(t *testing.T) {
	t.Run("self_join", func(t *testing.T) {
		ds, err := GenerateDataset("opendata", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewWithVectors(ds.Collection, ds.Vectors, Config{K: 5, Alpha: 0.8})
		q := ds.Queries[0]
		pairs, err := eng.JoinMapping(q.Elements, q.SourceSet)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(sets.Dedup(q.Elements)); len(pairs) != want {
			t.Fatalf("self join mapped %d of %d elements", len(pairs), want)
		}
		for _, p := range pairs {
			if p.QueryElement != p.SetElement || p.Sim != 1 {
				t.Fatalf("self join produced the non-identity pair %+v", p)
			}
		}
	})

	eng := New(demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7})
	t.Run("semantic_pair", func(t *testing.T) {
		pairs, err := eng.JoinMapping([]string{"BigApple"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 1 || pairs[0].SetElement != "NewYorkCity" || pairs[0].Sim != 0.9 {
			t.Fatalf("mapping = %+v, want BigApple→NewYorkCity at 0.9", pairs)
		}
	})
	t.Run("descending_order", func(t *testing.T) {
		pairs, err := eng.JoinMapping(figure1Query, 0) // C1: three pairs tie at 0.7
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) < 3 {
			t.Fatalf("mapping = %+v, want at least three pairs", pairs)
		}
		for i := 1; i < len(pairs); i++ {
			a, b := pairs[i-1], pairs[i]
			if a.Sim < b.Sim || (a.Sim == b.Sim && a.QueryElement >= b.QueryElement) {
				t.Fatalf("pairs %d and %d out of order: %+v", i-1, i, pairs)
			}
			if b.Sim < 0.7 {
				t.Fatalf("pair %+v below α", b)
			}
		}
	})
	t.Run("unknown_set", func(t *testing.T) {
		for _, id := range []int{-1, 2, 1 << 30} {
			if _, err := eng.JoinMapping(figure1Query, id); err == nil {
				t.Fatalf("set %d accepted", id)
			}
		}
		// A query unrelated to the set maps nothing, without an error.
		pairs, err := eng.JoinMapping([]string{"zz-unrelated-1", "zz-unrelated-2"}, 0)
		if err != nil || len(pairs) != 0 {
			t.Fatalf("unrelated mapping = %+v, %v", pairs, err)
		}
	})
}

// TestJoinMappingMatchesSemanticOverlap holds the two pairwise builders to
// each other: JoinMapping's α-graph comes from the collection's source plus
// identity edges, SemanticOverlap's from every pair of elements, and the
// weight of the mapping is the semantic overlap for every seed set.
func TestJoinMappingMatchesSemanticOverlap(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.6
	eng := New(ds.Collection, EditSimilarity(), Config{K: 3, Alpha: alpha})
	semantic := 0
	for _, dq := range ds.Queries[:3] {
		for id, s := range ds.Collection {
			pairs, err := eng.JoinMapping(dq.Elements, id)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, p := range pairs {
				sum += p.Sim
				if p.QueryElement != p.SetElement {
					semantic++
				}
			}
			if want := SemanticOverlap(dq.Elements, s.Elements, EditSimilarity(), alpha); math.Abs(sum-want) > tol {
				t.Fatalf("set %d: the mapping weighs %v, the semantic overlap is %v", id, sum, want)
			}
		}
	}
	if semantic == 0 {
		t.Fatal("no mapping held a non-identity pair: nothing compared the neighbour edges")
	}
}
