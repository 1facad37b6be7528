// Package model is the reference model every oracle test holds the engine
// to. It keeps collections as maps from set name to elements and scores
// them by brute force, sharing no dictionary, stream, index or solver
// scratch with the engine: a set's semantic overlap with a query is an
// optimal matching over every pair of their elements whose similarity under
// a sim.Func reaches α, and an answer is the first k sets by the rule of
// DESIGN.md §1.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/matching"
	"repro/internal/sets"
	"repro/internal/sim"
)

// Collection is one tenant's sets: their elements by name, and the names
// in the order they were last written. An insert of a name the collection
// holds replaces that set and moves it to the end, as the engine's manager
// does.
type Collection struct {
	order []string
	rows  map[string][]string
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{rows: make(map[string][]string)} }

// Insert writes the set name, replacing any set of that name.
func (c *Collection) Insert(name string, elems []string) {
	c.Delete(name)
	c.order = append(c.order, name)
	c.rows[name] = elems
}

// Delete removes the set name, if there is one.
func (c *Collection) Delete(name string) {
	if _, ok := c.rows[name]; !ok {
		return
	}
	delete(c.rows, name)
	i := slices.Index(c.order, name)
	c.order = slices.Delete(c.order, i, i+1)
}

// Len is the number of sets.
func (c *Collection) Len() int { return len(c.order) }

// Name is the name of the i-th set in write order.
func (c *Collection) Name(i int) string { return c.order[i] }

// Elements returns the elements set name was written with.
func (c *Collection) Elements(name string) ([]string, bool) {
	elems, ok := c.rows[name]
	return elems, ok
}

// Sets returns the sets in write order, with the elements they were
// written with.
func (c *Collection) Sets() []sets.Set {
	out := make([]sets.Set, len(c.order))
	for i, n := range c.order {
		out[i] = sets.Set{Name: n, Elements: c.rows[n]}
	}
	return out
}

// Clone returns a copy that later writes to either leave the other alone.
func (c *Collection) Clone() *Collection {
	out := NewCollection()
	for _, n := range c.order {
		out.Insert(n, c.rows[n])
	}
	return out
}

// Result is one set of an answer: its position in the list the Ranker was
// built over, its name and its semantic overlap with the query.
type Result struct {
	Index int
	Name  string
	Score float64
}

// Ranker scores queries against a fixed list of sets. Each set is its
// distinct elements in first-occurrence order, as the engine stores it.
// The pair table is memoized: per query element met, its α-edges into the
// sets' vocabulary, so the queries of a workload, which share most of their
// elements, pay for each element once.
//
// A score has the bits the engine's verifier gives it:
// matching.SparseSolver over the set's α-graph, rows the query's distinct
// elements in ascending order and columns the set's elements in set order.
// Two optimal matchings can sum to different bits, and which one a solver
// ends on is up to the solver, so the dense matching.Hungarian holds each
// score it checks to within 1e-9 instead, solving each connected component
// of the graph alone: its time is cubic in a component's larger side, not
// in the graph's.
type Ranker struct {
	fn     sim.Func
	alpha  float64
	names  []string
	rows   [][]int32 // each set's distinct elements as vocabulary positions
	vocab  []string
	pairs  map[string][]pair
	edges  []matching.Edge
	solver matching.SparseSolver
}

// pair is an α-edge of a query element into the vocabulary.
type pair struct {
	tok int32
	w   float64
}

// NewRanker returns a ranker over rows, scoring pairs of elements by fn:
// it must give 1 between equal elements, and a pair below alpha is no edge.
func NewRanker(rows []sets.Set, fn sim.Func, alpha float64) *Ranker {
	r := &Ranker{fn: fn, alpha: alpha, pairs: make(map[string][]pair)}
	ids := make(map[string]int32)
	for _, s := range rows {
		var row []int32
		for _, e := range sets.Dedup(s.Elements) {
			id, ok := ids[e]
			if !ok {
				id = int32(len(r.vocab))
				ids[e] = id
				r.vocab = append(r.vocab, e)
			}
			row = append(row, id)
		}
		r.names = append(r.names, s.Name)
		r.rows = append(r.rows, row)
	}
	return r
}

// Score returns the semantic overlap of query and elems under fn at alpha,
// with the bits TopK would give the set.
func Score(query, elems []string, fn sim.Func, alpha float64) (float64, error) {
	return NewRanker([]sets.Set{{Elements: elems}}, fn, alpha).Score(query, 0)
}

// Score returns the semantic overlap of query and the i-th set.
func (r *Ranker) Score(query []string, i int) (float64, error) {
	q, adj := r.adjacency(query)
	so := r.solve(len(q), adj, i)
	if err := denseCheck(so, r.edges); err != nil {
		return 0, fmt.Errorf("query %v, set %d: %w", query, i, err)
	}
	return so, nil
}

// TopK returns the first k sets of nonzero overlap with query by the rule:
// score bits descending, then name, then position. The sets that decide it,
// the first k + 1 and any within 1e-9 of the (k+1)-th, are held to the dense
// Hungarian: checking every set would cost seconds per query on the
// workload shapes. The error reports a disagreement.
func (r *Ranker) TopK(query []string, k int) ([]Result, error) {
	q, adj := r.adjacency(query)
	var ranked []Result
	for i, name := range r.names {
		if so := r.solve(len(q), adj, i); so > 0 {
			ranked = append(ranked, Result{Index: i, Name: name, Score: so})
		}
	}
	slices.SortFunc(ranked, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Or(strings.Compare(a.Name, b.Name), a.Index-b.Index)
	})
	for i, s := range ranked {
		if i > k && s.Score < ranked[k].Score-1e-9 {
			break
		}
		r.solve(len(q), adj, s.Index)
		if err := denseCheck(s.Score, r.edges); err != nil {
			return nil, fmt.Errorf("query %v, set %d (%q): %w", query, s.Index, s.Name, err)
		}
	}
	return ranked[:min(k, len(ranked))], nil
}

// adjacency returns query's distinct elements in ascending order and, per
// vocabulary position, its α-edges to them.
func (r *Ranker) adjacency(query []string) ([]string, [][]matching.Edge) {
	q := sets.Dedup(query)
	slices.Sort(q)
	adj := make([][]matching.Edge, len(r.vocab))
	for i, e := range q {
		row, ok := r.pairs[e]
		if !ok {
			for tok, t := range r.vocab {
				if w := r.fn.Sim(e, t); w >= r.alpha {
					row = append(row, pair{int32(tok), w})
				}
			}
			r.pairs[e] = row
		}
		for _, p := range row {
			adj[p.tok] = append(adj[p.tok], matching.Edge{Q: int32(i), W: p.w})
		}
	}
	return q, adj
}

// solve lays out the i-th set's α-graph in r.edges and returns its
// optimal matching's score.
func (r *Ranker) solve(rows int, adj [][]matching.Edge, i int) float64 {
	r.edges = r.edges[:0]
	for j, tok := range r.rows[i] {
		for _, ed := range adj[tok] {
			r.edges = append(r.edges, matching.Edge{Q: ed.Q, C: int32(j), W: ed.W})
		}
	}
	if len(r.edges) == 0 {
		return 0
	}
	return r.solver.Solve(rows, len(r.rows[i]), r.edges, nil).Score
}

// denseCheck solves the graph of edges with the dense Hungarian, one
// connected component at a time, and fails unless it agrees with so within
// 1e-9.
func denseCheck(so float64, edges []matching.Edge) error {
	// Union-find over the rows (node 2q) and columns (node 2c+1).
	parent := make(map[int32]int32)
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, ed := range edges {
		parent[find(2*ed.Q)] = find(2*ed.C + 1)
	}
	comps := make(map[int32][]matching.Edge)
	for _, ed := range edges {
		root := find(2 * ed.Q)
		comps[root] = append(comps[root], ed)
	}
	dense := 0.0
	for _, comp := range comps {
		rows, cols := make(map[int32]int), make(map[int32]int)
		for _, ed := range comp {
			if _, ok := rows[ed.Q]; !ok {
				rows[ed.Q] = len(rows)
			}
			if _, ok := cols[ed.C]; !ok {
				cols[ed.C] = len(cols)
			}
		}
		w := make([][]float64, len(rows))
		for i := range w {
			w[i] = make([]float64, len(cols))
		}
		for _, ed := range comp {
			w[rows[ed.Q]][cols[ed.C]] = ed.W
		}
		dense += matching.Hungarian(w).Score
	}
	if math.Abs(so-dense) > 1e-9 {
		return fmt.Errorf("sparse solver scores %v, dense Hungarian %v", so, dense)
	}
	return nil
}
