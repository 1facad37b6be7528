package matching

import (
	"math"

	"repro/internal/pqueue"
)

// SparseSolver computes exact maximum-weight optional matchings over an edge
// list by successive shortest augmenting paths with Johnson potentials (the
// Jonker–Volgenant approach; the paper's footnote 1 notes that graphs with
// structure admit "Dijkstra's algorithm and Fibonacci heaps"). Each
// augmentation runs Dijkstra over the actual edges only, so time is
// O(rows · E log E) and memory O(rows + cols + E) — against O(n³) and a dense
// n² matrix for Hungarian — which is what the α-thresholded similarity graphs
// Koios verifies want: hundreds of rows, a few edges each.
//
// Optional matching is modeled with one zero-weight virtual column per row,
// so min-cost over cost(i,j) = −w(i,j) equals max-weight. A virtual column is
// adjacent to its own row only, hence is only ever reached free, ends the
// search when it is, and keeps potential 0; it needs no storage beyond the
// best candidate of the current search. DESIGN.md §12 gives the duality and
// early-termination argument.
//
// The zero value is ready to use. A solver owns its scratch, which grows to
// the largest instance seen and is reused, so a warmed solver allocates
// nothing per call; it must not be shared between goroutines.
type SparseSolver struct {
	// CSR adjacency by row: row i's edges are [rowStart[i], rowStart[i+1]).
	rowStart []int32
	col      []int32
	w        []float64

	u, v    []float64 // row and column potentials; v ≤ 0
	rowEdge []int32   // matched edge of each row, -1 = on its virtual column
	colRow  []int32   // matched row of each column, -1 = free

	// Per-search Dijkstra state, reset through touched.
	dist       []float64
	parentRow  []int32
	parentEdge []int32
	state      []uint8 // 0 untouched, 1 reached, 2 finalized
	touched    []int32
	heap       *pqueue.Heap[colDist]

	match []int
	ws    []float64 // the matched weights, summed by Sum

	// trace, when set (tests only), observes the solver and its dual sum on
	// entry and after every augmentation.
	trace func(dualSum float64)
}

type colDist struct {
	d float64
	j int32
}

// load builds the CSR adjacency from edges by a counting sort on the row
// (stable, so a row's edges keep their input order), dropping non-positive
// weights — an optional matching never needs them — and resets the matching
// state for a rows × cols instance. The fill also sets the initial row
// potentials u[i] = −rowMax[i]: each starts at −0, which an edgeless row
// keeps, and takes the least −w of its row's edges.
func (s *SparseSolver) load(rows, cols int, edges []Edge) {
	start := resize(s.rowStart, rows+1)
	clear(start)
	n := 0
	for _, e := range edges {
		if e.W > 0 {
			start[e.Q+1]++
			n++
		}
	}
	for i, sum := 1, int32(0); i <= rows; i++ {
		sum += start[i]
		start[i] = sum
	}
	col, w := resize(s.col, n), resize(s.w, n)
	u := resize(s.u, rows)
	negZero := math.Copysign(0, -1)
	for i := range u {
		u[i] = negZero
	}
	fill := resize(s.rowEdge, rows) // rowEdge doubles as the fill cursor
	copy(fill, start)
	for _, e := range edges {
		if e.W > 0 {
			at := fill[e.Q]
			col[at], w[at] = e.C, e.W
			fill[e.Q] = at + 1
			u[e.Q] = min(u[e.Q], -e.W)
		}
	}
	for i := range fill {
		fill[i] = -1
	}
	s.rowStart, s.col, s.w, s.u, s.rowEdge = start, col, w, u, fill
	s.v = resize(s.v, cols)
	clear(s.v)
	s.colRow = resize(s.colRow, cols)
	s.dist, s.state = resize(s.dist, cols), resize(s.state, cols)
	s.parentRow, s.parentEdge = resize(s.parentRow, cols), resize(s.parentEdge, cols)
	clear(s.state)
	for j := range s.colRow {
		s.colRow[j] = -1
	}
	s.match = resize(s.match, rows)
	if s.heap == nil {
		s.heap = pqueue.NewHeap(func(a, b colDist) bool { return a.d < b.d })
	}
	s.touched = s.touched[:0] // a pruned solve leaves its last search behind
	s.heap.Reset()
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve returns the maximum-weight optional matching of the bipartite graph
// with the given edges (Q in [0,rows), C in [0,cols)), giving up as soon as
// its dual sum — an upper bound on the weight of any matching — drops below
// bound()−BoundEps (Lemma 8's EM-early-termination filter). bound may be nil
// (never prune); it is re-read at every check, so a concurrently rising θlb
// tightens a running verification. The verdict equals HungarianBounded's on
// the densified matrix: both prune iff the optimum is below the bound.
//
// Score is the matched weights' Sum, as the dense solver reports it: the
// same bits whichever optimal matching the search ends on and in whatever
// order the rows come. Result.Match aliases the solver's scratch and is valid until the
// next call; Iterations counts augmentations (rows with at least one edge).
func (s *SparseSolver) Solve(rows, cols int, edges []Edge, bound func() float64) Result {
	s.load(rows, cols, edges)
	// Initial potentials u[i] = −rowMax[i], v = 0 make every reduced cost
	// −w − u[i] − v[j] non-negative, and the dual sum −(Σu+Σv) = Σ rowMax in
	// index order — bit-identical to the Hungarian's initial label sum.
	dualSum := 0.0
	for _, u := range s.u {
		dualSum -= u
	}
	if s.trace != nil {
		s.trace(dualSum)
	}
	if bound != nil && dualSum < bound()-BoundEps {
		return Result{Pruned: true}
	}

	iterations := 0
	start, u, col, colRow := s.rowStart, s.u, s.col, s.colRow
	for root := 0; root < rows; root++ {
		if start[root] == start[root+1] {
			continue
		}
		iterations++
		// The cheapest virtual column seen so far: row endRow at distance
		// delta. A real free column popped at or below delta replaces it.
		endRow, endEdge, delta := int32(root), int32(-1), -u[root]
		// The search's first pop would be root's first edge of least
		// clamped reduced cost (Heap.up lifts an entry only past a strictly
		// greater one). When that pop would not happen (d > delta) or would
		// end the search on a free column, do here what the search does,
		// with the same checks, and leave the heap alone.
		if e, d := s.cheapest(int32(root)); d > delta || colRow[col[e]] == -1 {
			if d <= delta {
				if bound != nil && dualSum-d < bound()-BoundEps {
					return Result{Pruned: true, Iterations: iterations}
				}
				endEdge, delta = e, d
			}
		} else {
			s.relax(int32(root), 0)
		}
		for s.heap.Len() > 0 && s.heap.Peek().d <= delta {
			it := s.heap.Pop()
			if s.state[it.j] == 2 {
				continue // stale entry of a finalized column
			}
			// The augmentation's length is at least it.d, so the dual sum
			// after it is at most dualSum−it.d: prune on that already.
			if bound != nil && dualSum-it.d < bound()-BoundEps {
				return Result{Pruned: true, Iterations: iterations}
			}
			s.state[it.j] = 2
			i := colRow[it.j]
			if i == -1 {
				endRow, endEdge, delta = s.parentRow[it.j], s.parentEdge[it.j], it.d
				break
			}
			// Cross the matched edge (reduced cost 0) back to its row.
			if d := it.d - u[i]; d < delta {
				endRow, endEdge, delta = i, -1, d
			}
			s.relax(i, it.d)
		}
		if bound != nil && dualSum-delta < bound()-BoundEps {
			return Result{Pruned: true, Iterations: iterations}
		}
		// Re-price the finalized part of the tree: Σu+Σv rises by exactly
		// delta (every finalized column but the free one is matched, so the
		// per-column terms cancel against their rows').
		u[root] += delta
		for _, j := range s.touched {
			if s.state[j] == 2 && colRow[j] != -1 {
				s.v[j] += s.dist[j] - delta
				u[colRow[j]] += delta - s.dist[j]
			}
		}
		dualSum -= delta
		// Augment: endRow takes endEdge (or its virtual column), and each
		// row on the path hands its former column to the row that reached it.
		for i, e := endRow, endEdge; ; {
			prev := s.rowEdge[i]
			s.rowEdge[i] = e
			if e >= 0 {
				colRow[col[e]] = i
			}
			if int(i) == root {
				break
			}
			j := col[prev]
			i, e = s.parentRow[j], s.parentEdge[j]
		}
		for _, j := range s.touched {
			s.state[j] = 0
		}
		s.touched = s.touched[:0]
		s.heap.Reset()
		if s.trace != nil {
			s.trace(dualSum)
		}
	}

	ws, match := s.ws[:0], s.match[:len(s.rowEdge)]
	for i, e := range s.rowEdge {
		m := -1
		if e >= 0 {
			m = int(s.col[e])
			ws = append(ws, s.w[e])
		}
		match[i] = m
	}
	s.ws = ws
	return Result{Score: Sum(ws), Match: match, Iterations: iterations}
}

// cheapest returns row i's first edge of least clamped reduced cost and
// that cost: the distance relax(i, 0) gives its column.
func (s *SparseSolver) cheapest(i int32) (int32, float64) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	col, v, ui := s.col[lo:hi], s.v, s.u[i]
	w := s.w[lo:hi]
	w = w[:len(col)] // tells the compiler w[k] is in range
	// best moves by a conditional move and bestD by min, not by a branch
	// on the comparison: its outcome is data, and a branch on it
	// mispredicts often enough to dominate the scan of a short row.
	best, bestD := 0, math.Inf(1)
	for k, j := range col {
		nd := max(-w[k]-ui-v[j], 0)
		if nd < bestD {
			best = k
		}
		bestD = min(bestD, nd)
	}
	return lo + int32(best), bestD
}

// relax offers every unfinalized column adjacent to row i a path through i,
// which the search reached at distance base.
func (s *SparseSolver) relax(i int32, base float64) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	col, v, ui := s.col[lo:hi], s.v, s.u[i]
	w := s.w[lo:hi]
	w = w[:len(col)]
	for k, j := range col {
		if s.state[j] == 2 {
			continue
		}
		// Reduced costs are ≥ 0 up to rounding; clamp so pops stay monotone.
		nd := base + max(-w[k]-ui-v[j], 0)
		if s.state[j] == 0 {
			s.state[j] = 1
			s.touched = append(s.touched, j)
		} else if nd >= s.dist[j] {
			continue
		}
		s.dist[j], s.parentRow[j], s.parentEdge[j] = nd, i, lo+int32(k)
		s.heap.Push(colDist{d: nd, j: j})
	}
}
