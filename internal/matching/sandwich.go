package matching

import "sort"

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
		if nu := matchCardinality(colRows, len(rowMax), n); nu < n {
			n = nu
		}
	}
	r := append([]float64(nil), rowMax...)
	c := append([]float64(nil), colMax...)
	sort.Sort(sort.Reverse(sort.Float64Slice(r)))
	sort.Sort(sort.Reverse(sort.Float64Slice(c)))
	paired := 0.0
	for k := 0; k < n; k++ {
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
func matchCardinality(colRows [][]int32, rows, limit int) int {
	rowTo := make([]int32, rows) // column matched to each row, or -1
	for i := range rowTo {
		rowTo[i] = -1
	}
	visited := make([]bool, rows)
	var augment func(j int32) bool
	augment = func(j int32) bool {
		for _, r := range colRows[j] {
			if visited[r] {
				continue
			}
			visited[r] = true
			if rowTo[r] == -1 || augment(rowTo[r]) {
				rowTo[r] = j
				return true
			}
		}
		return false
	}
	nu := 0
	for j := range colRows {
		for i := range visited {
			visited[i] = false
		}
		if augment(int32(j)) {
			nu++
			if nu >= limit {
				break
			}
		}
	}
	return nu
}
