// Package matching implements the bipartite graph machinery behind the
// semantic overlap measure: a sparse successive-shortest-paths solver over
// the α-edges whose dual sum realizes the paper's EM-Early-Terminated filter
// (Lemma 8) — the verifier the engine runs — the dense O(n³) Kuhn–Munkres
// (Hungarian) solver with the same filter kept as the reference, the
// ½-approximate greedy matching used by the LB filter, and an exponential
// brute-force reference used in tests.
//
// All solvers compute *optional* one-to-one matchings (Def. 1 of the paper):
// elements may stay unmatched, which for non-negative weights is equivalent
// to a perfect matching on a zero-padded square matrix.
package matching

import "math"

// Result describes a solved matching.
type Result struct {
	// Score is the total weight of the matching (the semantic overlap when
	// weights are α-thresholded similarities).
	Score float64
	// Match maps each row (query element) to its matched column, or -1 when
	// the row is effectively unmatched (unassigned or assigned a zero-weight
	// padding edge).
	Match []int
	// Pruned reports that the solver aborted early because its dual (label)
	// sum — an upper bound on the final score — fell below the bound
	// supplied by the caller. Score and Match are meaningless when set.
	Pruned bool
	// Iterations counts augmentation phases, exposed for the bench harness
	// to quantify how much work early termination saves.
	Iterations int
	// Skipped reports that the verdict came from SandwichPrune without
	// running a solver; it is the verdict the solver would have returned.
	Skipped bool
}

// Hungarian computes a maximum-weight optional matching of the dense weight
// matrix w (rows × cols, non-negative entries). It never terminates early.
func Hungarian(w [][]float64) Result {
	return HungarianBounded(w, nil)
}

// BoundEps is the slack applied to early-termination comparisons: the solver
// prunes only when the label sum is below bound()−BoundEps. The label sum
// converges to the exact optimum from above, so with exact arithmetic a
// strict comparison suffices — but accumulated float64 noise can push the
// label sum a few ulps below a bound that ties the optimum, which would
// wrongly prune a legitimate tie set. The slack keeps pruning sound at the
// cost of (at most) finishing a matching that a tie would have allowed us to
// skip.
const BoundEps = 1e-9

// HungarianBounded computes a maximum-weight optional matching but gives up
// as soon as the sum of feasible labels drops below bound()−BoundEps. The
// label sum is an upper bound on the weight of any matching (Kuhn–Munkres
// theorem), so a result with Pruned=true certifies Score(w) < bound at the
// moment of the last check. bound may be nil (never prune); it is re-read
// after every label update so a concurrently improving global θlb tightens
// running verifications, as in §VI of the paper.
func HungarianBounded(w [][]float64, bound func() float64) Result {
	nr := len(w)
	if nr == 0 {
		return Result{Match: []int{}}
	}
	nc := 0
	for _, row := range w {
		if len(row) > nc {
			nc = len(row)
		}
	}
	if nc == 0 {
		m := make([]int, nr)
		for i := range m {
			m[i] = -1
		}
		return Result{Match: m}
	}
	n := nr
	if nc > n {
		n = nc
	}

	at := func(i, j int) float64 {
		if i < nr && j < len(w[i]) {
			return w[i][j]
		}
		return 0
	}

	lx := make([]float64, n) // row labels
	ly := make([]float64, n) // column labels
	labelSum := 0.0
	for i := 0; i < n; i++ {
		best := 0.0
		for j := 0; j < n; j++ {
			if v := at(i, j); v > best {
				best = v
			}
		}
		lx[i] = best
		labelSum += best
	}

	const eps = 1e-12
	xy := make([]int, n) // xy[i] = column matched to row i
	yx := make([]int, n) // yx[j] = row matched to column j
	for i := range xy {
		xy[i], yx[i] = -1, -1
	}

	slack := make([]float64, n) // min slack to tree for each column
	slackRow := make([]int, n)  // row achieving that slack (stable once in tree)
	inS := make([]bool, n)      // rows in the alternating tree
	inT := make([]bool, n)      // columns in the alternating tree
	iterations := 0

	if bound != nil && labelSum < bound()-BoundEps {
		return Result{Pruned: true}
	}

	for root := 0; root < n; root++ {
		iterations++
		for j := 0; j < n; j++ {
			inS[j], inT[j] = false, false
			slack[j] = lx[root] + ly[j] - at(root, j)
			slackRow[j] = root
		}
		inS[root] = true

		var augmentCol int = -1
		for augmentCol == -1 {
			// Find the unvisited column with minimum slack.
			delta := math.Inf(1)
			jMin := -1
			for j := 0; j < n; j++ {
				if !inT[j] && slack[j] < delta {
					delta = slack[j]
					jMin = j
				}
			}
			if delta > eps {
				// Improve labels: rows in S lose delta, columns in T gain
				// delta. |S| = |T|+1, so the label sum strictly decreases.
				for i := 0; i < n; i++ {
					if inS[i] {
						lx[i] -= delta
					}
					if inT[i] {
						ly[i] += delta
					}
				}
				labelSum -= delta
				for j := 0; j < n; j++ {
					if !inT[j] {
						slack[j] -= delta
					}
				}
				if bound != nil && labelSum < bound()-BoundEps {
					return Result{Pruned: true, Iterations: iterations}
				}
			}
			// jMin is now tight: add it to the tree.
			j := jMin
			inT[j] = true
			if yx[j] == -1 {
				augmentCol = j
			} else {
				next := yx[j]
				inS[next] = true
				for j2 := 0; j2 < n; j2++ {
					if inT[j2] {
						continue
					}
					if s := lx[next] + ly[j2] - at(next, j2); s < slack[j2] {
						slack[j2] = s
						slackRow[j2] = next
					}
				}
			}
		}

		// Augment along the alternating path ending at augmentCol.
		j := augmentCol
		for j != -1 {
			i := slackRow[j]
			jNext := xy[i]
			yx[j] = i
			xy[i] = j
			j = jNext
		}
	}

	score := 0.0
	match := make([]int, nr)
	for i := 0; i < nr; i++ {
		j := xy[i]
		if j >= 0 && j < nc && at(i, j) > 0 {
			match[i] = j
			score += at(i, j)
		} else {
			match[i] = -1
		}
	}
	return Result{Score: score, Match: match, Iterations: iterations}
}
