package matching

import (
	"math"
	"math/rand"
	"testing"
)

// solveSparse runs a fresh SparseSolver over the positive cells of w.
func solveSparse(w [][]float64, bound func() float64) Result {
	var s SparseSolver
	return s.Solve(len(w), width(w), edgesOf(w), bound)
}

func width(w [][]float64) int {
	cols := 0
	for _, row := range w {
		if len(row) > cols {
			cols = len(row)
		}
	}
	return cols
}

func TestSparseTrivial(t *testing.T) {
	cases := []struct {
		name string
		w    [][]float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", [][]float64{{0.7}}, 0.7},
		{"zero matrix", [][]float64{{0, 0}, {0, 0}}, 0},
		{"identity", [][]float64{{1, 0}, {0, 1}}, 2},
		{"anti-diagonal better", [][]float64{{0.5, 0.9}, {0.9, 0.5}}, 1.8},
		{"rectangular wide", [][]float64{{0.3, 0.8, 0.1}}, 0.8},
		{"rectangular tall", [][]float64{{0.3}, {0.8}, {0.1}}, 0.8},
		{"optional skip beats forced", [][]float64{{0.9, 0.8}, {0.85, 0}}, 1.65},
		{"paper C2", [][]float64{
			{1, 0, 0, 0, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 0},
			{0, 0, 0.85, 0, 0.80, 0, 0},
			{0, 0, 0, 0.99, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 0.90},
			{0, 0, 0.80, 0, 0, 0, 0},
		}, 4.49},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := solveSparse(tc.w, nil)
			if math.Abs(got.Score-tc.want) > 1e-9 {
				t.Fatalf("Score = %v, want %v", got.Score, tc.want)
			}
		})
	}
}

// TestSparseEdgeListInput: the solver takes edges in any order, keeps the
// heavier of two parallel edges, and ignores non-positive weights.
func TestSparseEdgeListInput(t *testing.T) {
	var s SparseSolver
	res := s.Solve(2, 2, []Edge{
		{Q: 1, C: 0, W: 0.85}, {Q: 0, C: 1, W: 0.8}, {Q: 0, C: 0, W: 0.9},
		{Q: 0, C: 1, W: 0.3}, {Q: 1, C: 1, W: 0}, {Q: 1, C: 1, W: -2},
	}, nil)
	if math.Abs(res.Score-1.65) > 1e-9 {
		t.Fatalf("Score = %v, want 1.65", res.Score)
	}
	if res.Match[0] != 1 || res.Match[1] != 0 {
		t.Fatalf("Match = %v", res.Match)
	}
}

// sparseInstance draws the α-graph shape the engine verifies: weights are
// float32 values in [α,1] from a small palette (forcing ties), a fraction of
// rows has no edge at all, and the shape is tall, wide or square.
func sparseInstance(rng *rand.Rand, maxN int) [][]float64 {
	rows, cols := 1+rng.Intn(maxN), 1+rng.Intn(maxN)
	density := 0.02 + 0.48*rng.Float64()
	const alpha = 0.7
	palette := make([]float64, 2+rng.Intn(12))
	for i := range palette {
		palette[i] = float64(float32(alpha + (1-alpha)*rng.Float64()))
	}
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		if rng.Intn(6) == 0 {
			continue
		}
		for j := range w[i] {
			if rng.Float64() < density {
				w[i][j] = palette[rng.Intn(len(palette))]
			}
		}
	}
	return w
}

// checkSparse holds one instance against the dense reference: exact score,
// a valid one-to-one matching over real edges whose weights sum (in row
// order) to Score bit for bit, the dual invariants after every augmentation,
// the dense solver's prune verdict at bound, and no prune under a bound that
// rises to at most the optimum.
func checkSparse(t *testing.T, w [][]float64, bound float64) {
	t.Helper()
	rows, cols := len(w), width(w)
	edges := edgesOf(w)
	ref := Hungarian(w)

	rowMaxSum := 0.0
	for _, row := range w {
		best := 0.0
		for _, v := range row {
			if v > best {
				best = v
			}
		}
		rowMaxSum += best
	}

	var s SparseSolver
	calls, last := 0, math.Inf(1)
	s.trace = func(dualSum float64) {
		if calls == 0 && dualSum != rowMaxSum {
			t.Fatalf("entry dual sum %v, want Σ rowMax %v bit for bit", dualSum, rowMaxSum)
		}
		calls++
		if dualSum > last {
			t.Fatalf("dual sum rose from %v to %v", last, dualSum)
		}
		last = dualSum
		sumUV := 0.0
		for i := 0; i < rows; i++ {
			if s.u[i] > 1e-12 {
				t.Fatalf("u[%d] = %v > 0: virtual edge infeasible", i, s.u[i])
			}
			sumUV += s.u[i]
			for e := s.rowStart[i]; e < s.rowStart[i+1]; e++ {
				rc := -s.w[e] - s.u[i] - s.v[s.col[e]]
				if rc < -1e-12 {
					t.Fatalf("reduced cost %v on edge (%d,%d)", rc, i, s.col[e])
				}
				if s.rowEdge[i] == e && rc > 1e-12 {
					t.Fatalf("matched edge (%d,%d) not tight: %v", i, s.col[e], rc)
				}
			}
		}
		for j := 0; j < cols; j++ {
			if s.v[j] > 0 {
				t.Fatalf("v[%d] = %v > 0", j, s.v[j])
			}
			if s.colRow[j] == -1 && s.v[j] != 0 {
				t.Fatalf("free column %d has potential %v", j, s.v[j])
			}
			sumUV += s.v[j]
		}
		if math.Abs(dualSum+sumUV) > 1e-9 {
			t.Fatalf("dual sum %v drifted from −(Σu+Σv) = %v", dualSum, -sumUV)
		}
	}
	got := s.Solve(rows, cols, edges, nil)
	s.trace = nil
	if got.Pruned {
		t.Fatal("pruned without a bound")
	}
	if math.Abs(got.Score-ref.Score) > 1e-9 {
		t.Fatalf("Score %v, Hungarian %v (w=%v)", got.Score, ref.Score, w)
	}
	if last < got.Score-1e-9 {
		t.Fatalf("final dual sum %v below Score %v", last, got.Score)
	}
	used := make(map[int]bool)
	sum := 0.0
	for i, j := range got.Match {
		if j == -1 {
			continue
		}
		if j < 0 || j >= cols || used[j] || w[i][j] <= 0 {
			t.Fatalf("invalid match row %d -> col %d (Match=%v, w=%v)", i, j, got.Match, w)
		}
		used[j] = true
		sum += w[i][j]
	}
	if sum != got.Score {
		t.Fatalf("Match sums to %v, Score %v", sum, got.Score)
	}

	if math.Abs(bound-ref.Score) > 1e-6 {
		fixed := func() float64 { return bound }
		if sp, hb := s.Solve(rows, cols, edges, fixed), HungarianBounded(w, fixed); sp.Pruned != hb.Pruned {
			t.Fatalf("bound %v (optimum %v): sparse pruned=%v, dense pruned=%v (w=%v)",
				bound, ref.Score, sp.Pruned, hb.Pruned, w)
		} else if !sp.Pruned && sp.Score != got.Score {
			t.Fatalf("bounded Score %v, unbounded %v", sp.Score, got.Score)
		}
	}
	// A θlb that rises while the solver runs, ending at the optimum.
	reads := 0
	rising := func() float64 {
		reads++
		return ref.Score * (1 - 1/float64(reads))
	}
	if s.Solve(rows, cols, edges, rising).Pruned {
		t.Fatalf("pruned under a bound rising to the optimum %v after %d reads", ref.Score, reads)
	}
}

func TestSparseAgainstHungarian(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	offsets := []float64{-0.5, -1e-3, -1e-5, 1e-5, 1e-3, 0.5}
	for trial := 0; trial < 600; trial++ {
		maxN := 8
		if trial%4 == 0 {
			maxN = 80
		}
		w := sparseInstance(rng, maxN)
		checkSparse(t, w, Hungarian(w).Score+offsets[trial%len(offsets)])
	}
	// The generic random matrices the other solver tests use (dense, 3-digit
	// weights, no α floor).
	for trial := 0; trial < 600; trial++ {
		w := randMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.1+0.9*rng.Float64())
		checkSparse(t, w, rng.Float64()*4)
	}
}

// FuzzSparseBounded decodes bytes into a sparse instance and a bound and
// holds it to checkSparse. Layout: rows, cols, bound (in 1/16ths), then one
// byte per cell — low two bits 0 means no edge, the rest picks one of 16
// float32 weights in [0.7,1].
func FuzzSparseBounded(f *testing.F) {
	f.Add([]byte{2, 2, 20, 0xff, 0x0d, 0x0d, 0x00})
	f.Add([]byte{6, 7, 60, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x35, 0, 0x21, 0, 0})
	f.Add([]byte{3, 1, 9, 5, 9, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols := 1+int(data[0])%24, 1+int(data[1])%24
		bound := float64(data[2]) / 16
		cells := data[3:]
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				if k := i*cols + j; k < len(cells) && cells[k]&3 != 0 {
					w[i][j] = float64(float32(0.7 + 0.3*float64(cells[k]>>4)/15))
				}
			}
		}
		checkSparse(t, w, bound)
	})
}

// TestSparseSolverReuseAllocatesNothing pins the scratch contract: once a
// solver has seen an instance of a given size, solving allocates nothing —
// bounded or not, pruned or not.
func TestSparseSolverReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	w := sparseInstance(rng, 80)
	for len(edgesOf(w)) < 100 {
		w = sparseInstance(rng, 80)
	}
	rows, cols, edges := len(w), width(w), edgesOf(w)
	opt := Hungarian(w).Score
	var s SparseSolver
	for _, b := range []float64{0, opt - 0.01, opt + 0.01} {
		bound := func() float64 { return b }
		s.Solve(rows, cols, edges, bound)
		if n := testing.AllocsPerRun(20, func() { s.Solve(rows, cols, edges, bound) }); n != 0 {
			t.Fatalf("bound %v: %v allocations per warmed Solve, want 0", b, n)
		}
	}
}

func BenchmarkVerifiers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, density := range []float64{0.05, 0.5} {
		name := "sparse5pct"
		if density > 0.1 {
			name = "dense50pct"
		}
		w := randMatrix(rng, 128, 128, density)
		b.Run("hungarian/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Hungarian(w)
			}
		})
		b.Run("sparse/"+name, func(b *testing.B) {
			var s SparseSolver
			edges := edgesOf(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Solve(128, 128, edges, nil)
			}
		})
	}
}
