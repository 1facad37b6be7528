package matching

import "slices"

// The verification sandwich: a pre-solver that brackets the matching optimum
// from above and decides many candidates without running a solver.
// SandwichPrune certifies the optimum below the caller's bound from
// row/column maxima alone. It is conclusive-or-silent: when it cannot decide,
// the caller falls through to the bounded solver and nothing has changed.
// DESIGN.md §12 gives the byte-identity argument.

// SandwichPrune reports whether the matching optimum of a weight matrix with
// the given row and column maxima is certifiably below bound()−BoundEps.
//
// Two sound upper bounds are tried, cheapest first. Any matching selects at
// most one entry per row and at most one per column, so Σ rowMax and Σ colMax
// both bound the optimum; the row sum is accumulated in index order, making
// it bit-identical to the initial Hungarian label sum (padding rows
// contribute an exact 0.0), so this check subsumes the solver's entry check.
// The second is the sorted-pairing bound: sort each maxima vector descending
// and sum min(rowMax₍ₖ₎, colMax₍ₖ₎) over k. It dominates any matching because
// the k-th largest matched weight is at most the k-th largest row maximum
// (its k heaviest edges occupy k distinct rows) and likewise at most the k-th
// largest column maximum. This bound decays where Σ rowMax stays flat — many
// rows contending for the same strong columns — which is exactly the regime
// where the solver needs many label updates before its own prune fires.
//
// The pairing bound is truncated at the maximum matching cardinality ν of
// the positive-edge bipartite graph (colRows[j] lists the rows adjacent to
// column j), computed by unweighted Kuhn augmentation in O(ν·E): a matching
// has at most ν positive-weight entries, and zero-weight (padding) entries
// contribute nothing, so Σ_{k<ν} min(rowMax₍ₖ₎, colMax₍ₖ₎) dominates the
// optimum. This is the discriminating term on α-thresholded instances: every
// row and column maximum sits in [α,1], so the untruncated sums stay flat,
// while candidates far from the top-k have ν ≪ min(rows, cols). colRows may
// be nil to skip the cardinality refinement.
//
// A true return certifies optimum < bound−BoundEps, which is precisely the
// condition under which the bounded solvers (SparseSolver.Solve,
// HungarianBounded) return Pruned — their dual sum decreases monotonically to
// the optimum with a bound check at every step — so pruning here changes no
// result and no EM accounting, only the work spent reaching the same verdict.
func SandwichPrune(rowMax, colMax []float64, colRows [][]int32, bound func() float64) bool {
	var s SandwichScratch
	return s.Prune(rowMax, colMax, colRows, bound)
}

// SandwichScratch is the working memory of SandwichPrune — the sorted copies
// of the maxima and the cardinality matching's arrays — kept between calls by
// a caller that prunes many candidates. The zero value is ready.
type SandwichScratch struct {
	rows, cols []float64
	rowTo      []int32 // column matched to each row, or -1
	visited    []bool
}

// Prune is SandwichPrune on s's arrays.
func (s *SandwichScratch) Prune(rowMax, colMax []float64, colRows [][]int32, bound func() float64) bool {
	if bound == nil {
		return false
	}
	rowSum := 0.0
	for _, v := range rowMax {
		rowSum += v
	}
	colSum := 0.0
	for _, v := range colMax {
		colSum += v
	}
	ub := rowSum
	if colSum < ub {
		ub = colSum
	}
	b := bound() - BoundEps
	if ub < b {
		return true
	}
	n := len(rowMax)
	if len(colMax) < n {
		n = len(colMax)
	}
	if colRows != nil {
		if nu := s.matchCardinality(colRows, len(rowMax), n); nu < n {
			n = nu
		}
	}
	// Sorted ascending and read from the top: the k-th largest of each.
	s.rows = append(s.rows[:0], rowMax...)
	s.cols = append(s.cols[:0], colMax...)
	slices.Sort(s.rows)
	slices.Sort(s.cols)
	r, c := s.rows[len(s.rows)-n:], s.cols[len(s.cols)-n:]
	paired := 0.0
	for k := n - 1; k >= 0; k-- {
		if r[k] < c[k] {
			paired += r[k]
		} else {
			paired += c[k]
		}
	}
	return paired < b
}

// matchCardinality returns the maximum matching cardinality of the bipartite
// graph given as per-column row adjacency, stopping early once it reaches
// limit (the bound cannot improve past min(rows, cols)).
func (s *SandwichScratch) matchCardinality(colRows [][]int32, rows, limit int) int {
	s.rowTo = append(s.rowTo[:0], make([]int32, rows)...)
	for i := range s.rowTo {
		s.rowTo[i] = -1
	}
	s.visited = append(s.visited[:0], make([]bool, rows)...)
	nu := 0
	for j := range colRows {
		clear(s.visited)
		if s.augment(colRows, int32(j)) {
			nu++
			if nu >= limit {
				break
			}
		}
	}
	return nu
}

// augment looks for an augmenting path from column j (Kuhn's algorithm).
func (s *SandwichScratch) augment(colRows [][]int32, j int32) bool {
	for _, r := range colRows[j] {
		if s.visited[r] {
			continue
		}
		s.visited[r] = true
		if s.rowTo[r] == -1 || s.augment(colRows, s.rowTo[r]) {
			s.rowTo[r] = j
			return true
		}
	}
	return false
}
