package matching_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sparse_golden.txt from the current solver")

// largeGraph is one verification graph in the shape the search_large
// workload verifies: rows are a query's distinct elements in ascending
// order, columns a candidate set's elements with at least one α-edge in set
// order, and each column's edges its identity edge first, then the others
// by ascending row — the order the engine's edge cache holds them in.
type largeGraph struct {
	rows, cols int
	edges      []matching.Edge
	// bound is a θlb the graph could meet in a search: the tenth largest
	// greedy matching among its query's graphs.
	bound float64
}

const (
	largeAlpha     = 0.8
	graphsPerQuery = 14 // the k = 10 results and what else a search verifies
)

var largeGraphsMemo = sync.OnceValue(buildLargeGraphs)

// buildLargeGraphs generates datagen opendata at scale 0.1 (its fixed seed)
// and takes every set of 100–400 elements as a query. For each query it
// builds the graphs of the graphsPerQuery sets with the largest column-side
// bounds (the sum over a set's elements of their best α-similarity to the
// query; the lower set ID first on ties) — the sets the θlb seed matches
// and verification mostly meets.
func buildLargeGraphs() []largeGraph {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.1)
	repo := ds.Repo
	src := index.NewExact(repo.Vocabulary(), ds.Model.Vector)
	type qEdge struct {
		q int
		w float64
	}
	var out []largeGraph
	for qi := 0; qi < repo.Len(); qi++ {
		query := sets.Dedup(repo.Elements(qi))
		if len(query) < 100 || len(query) >= 400 {
			continue
		}
		slices.Sort(query)
		byTok := map[string][]qEdge{}
		for i, x := range query {
			byTok[x] = append(byTok[x], qEdge{i, 1})
		}
		for i, x := range query {
			for _, nb := range src.Neighbors(x, largeAlpha) {
				if nb.Token != x {
					byTok[nb.Token] = append(byTok[nb.Token], qEdge{i, nb.Sim})
				}
			}
		}
		type cand struct {
			sid   int
			bound float64
		}
		var cands []cand
		for sid := 0; sid < repo.Len(); sid++ {
			b := 0.0
			for _, x := range repo.Elements(sid) {
				best := 0.0
				for _, e := range byTok[x] {
					best = max(best, e.w)
				}
				b += best
			}
			if b > 0 {
				cands = append(cands, cand{sid, b})
			}
		}
		slices.SortStableFunc(cands, func(a, b cand) int {
			switch {
			case a.bound > b.bound:
				return -1
			case a.bound < b.bound:
				return 1
			}
			return 0
		})
		first := len(out)
		for _, c := range cands[:min(graphsPerQuery, len(cands))] {
			g := largeGraph{rows: len(query)}
			for _, x := range repo.Elements(c.sid) {
				es := byTok[x]
				if len(es) == 0 {
					continue
				}
				for _, e := range es {
					g.edges = append(g.edges, matching.Edge{Q: int32(e.q), C: int32(g.cols), W: e.w})
				}
				g.cols++
			}
			out = append(out, g)
		}
		greedy := make([]float64, 0, graphsPerQuery)
		for _, g := range out[first:] {
			greedy = append(greedy, matching.Greedy(g.edges).Score)
		}
		slices.Sort(greedy)
		bound := greedy[max(len(greedy)-10, 0)]
		for i := first; i < len(out); i++ {
			out[i].bound = bound
		}
	}
	return out
}

// decision is what a solve decides, as one golden line records it.
func decision(res matching.Result) string {
	h := fnv.New64a()
	for _, j := range res.Match {
		fmt.Fprintf(h, "%d,", j)
	}
	return fmt.Sprintf("%016x %t %d %016x", math.Float64bits(res.Score), res.Pruned, res.Iterations, h.Sum64())
}

func edgeSum(edges []matching.Edge) uint64 {
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "%d %d %016x,", e.Q, e.C, math.Float64bits(e.W))
	}
	return h.Sum64()
}

// TestSparseGolden pins every decision of SparseSolver on search_large-
// shaped graphs: per graph its Score bits, Pruned, Iterations and a
// checksum of Match, unbounded and under the graph's bound, on one solver
// reused across all graphs as a verification worker reuses it. The file
// was written before the solver's loops were last reworked; a line that
// differs is a decision that changed. Each line also carries the graph's
// size, edge checksum and bound, so a change in the generated graphs
// (datagen, the source) shows as such and not as a solver change.
// go test -run TestSparseGolden -update ./internal/matching rewrites it.
func TestSparseGolden(t *testing.T) {
	graphs := largeGraphsMemo()
	var s matching.SparseSolver
	lines := make([]string, len(graphs))
	pruned := 0
	for i, g := range graphs {
		free := s.Solve(g.rows, g.cols, g.edges, nil)
		line := fmt.Sprintf("%d %d %d %016x %016x | %s | ", i, g.rows, g.cols, edgeSum(g.edges), math.Float64bits(g.bound), decision(free))
		bound := g.bound
		bounded := s.Solve(g.rows, g.cols, g.edges, func() float64 { return bound })
		if bounded.Pruned {
			pruned++
		}
		lines[i] = line + decision(bounded)
	}
	path := filepath.Join("testdata", "sparse_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for ; sc.Scan(); n++ {
		if n >= len(lines) {
			t.Fatalf("golden file has more than the %d graphs generated", len(lines))
		}
		if got := lines[n]; sc.Text() != got {
			t.Fatalf("graph %d:\n got  %s\n want %s", n, got, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(lines) {
		t.Fatalf("golden file holds %d graphs, generated %d", n, len(lines))
	}
	if pruned == 0 || pruned == len(graphs) {
		t.Fatalf("%d of %d bounded solves pruned: want some of each", pruned, len(graphs))
	}
}

// BenchmarkSparseSolve times one Solve per op, rotating through the
// search_large-shaped graphs (at least 400 distinct ones) on one solver, as
// a verification worker meets them: one repeated graph would train the
// branch predictor on its branches and read faster than verification runs.
// The unbounded solve is the one every result's final verification makes.
func BenchmarkSparseSolve(b *testing.B) {
	graphs := largeGraphsMemo()
	if len(graphs) < 400 {
		b.Fatalf("%d graphs, want at least 400", len(graphs))
	}
	edges := 0
	for _, g := range graphs {
		edges += len(g.edges)
	}
	for _, bounded := range []bool{false, true} {
		name := "unbounded"
		if bounded {
			name = "bounded"
		}
		b.Run(name, func(b *testing.B) {
			var s matching.SparseSolver
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := &graphs[i%len(graphs)]
				var bound func() float64
				if bounded {
					bound = func() float64 { return g.bound }
				}
				s.Solve(g.rows, g.cols, g.edges, bound)
			}
			b.ReportMetric(float64(len(graphs)), "graphs")
			b.ReportMetric(float64(edges)/float64(len(graphs)), "edges/graph")
		})
	}
}
