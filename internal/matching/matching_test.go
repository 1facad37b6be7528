package matching

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func randMatrix(rng *rand.Rand, rows, cols int, density float64) [][]float64 {
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		for j := range w[i] {
			if rng.Float64() < density {
				w[i][j] = float64(rng.Intn(1000)) / 1000
			}
		}
	}
	return w
}

func edgesOf(w [][]float64) []Edge {
	var edges []Edge
	for i, row := range w {
		for j, v := range row {
			if v > 0 {
				edges = append(edges, Edge{Q: int32(i), C: int32(j), W: v})
			}
		}
	}
	return edges
}

func TestHungarianTrivial(t *testing.T) {
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Hungarian(tc.w)
			if got.Pruned {
				t.Fatal("unexpected Pruned")
			}
			if math.Abs(got.Score-tc.want) > tol {
				t.Fatalf("Score = %v, want %v", got.Score, tc.want)
			}
		})
	}
}

func TestHungarianMatchIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(7), 1+rng.Intn(7)
		w := randMatrix(rng, rows, cols, 0.6)
		res := Hungarian(w)
		usedCols := map[int]bool{}
		sum := 0.0
		for i, j := range res.Match {
			if j == -1 {
				continue
			}
			if j < 0 || j >= cols {
				t.Fatalf("match column %d out of range", j)
			}
			if usedCols[j] {
				t.Fatalf("column %d matched twice", j)
			}
			usedCols[j] = true
			if w[i][j] <= 0 {
				t.Fatalf("matched zero-weight edge (%d,%d)", i, j)
			}
			sum += w[i][j]
		}
		if math.Abs(sum-res.Score) > tol {
			t.Fatalf("Match weights sum to %v, Score says %v", sum, res.Score)
		}
	}
}

// TestHungarianAgainstBruteForce is the core exactness property test: on
// thousands of random instances the Hungarian score must equal the DP
// oracle.
func TestHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		density := 0.2 + rng.Float64()*0.8
		w := randMatrix(rng, rows, cols, density)
		want := BruteForce(w)
		got := Hungarian(w)
		if math.Abs(got.Score-want) > tol {
			t.Fatalf("trial %d (%dx%d): Hungarian = %v, brute force = %v, w=%v",
				trial, rows, cols, got.Score, want, w)
		}
	}
}

// TestSolversAgreeQuick drives all three exact solvers with
// testing/quick-generated instances: Hungarian, the sparse SSP solver, and
// the DP oracle must agree, and greedy must sit in [opt/2, opt].
func TestSolversAgreeQuick(t *testing.T) {
	f := func(cells []uint16, colsRaw uint8) bool {
		cols := int(colsRaw%6) + 1
		rows := len(cells) / cols
		if rows == 0 {
			return true
		}
		if rows > 6 {
			rows = 6
		}
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				v := float64(cells[i*cols+j]%1000) / 1000
				if v > 0.2 { // sparsify
					w[i][j] = v
				}
			}
		}
		opt := BruteForce(w)
		if math.Abs(Hungarian(w).Score-opt) > 1e-9 {
			return false
		}
		if math.Abs(solveSparse(w, nil).Score-opt) > 1e-9 {
			return false
		}
		g := Greedy(edgesOf(w)).Score
		return g <= opt+1e-9 && g >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1000; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		w := randMatrix(rng, rows, cols, 0.7)
		opt := BruteForce(w)
		g := Greedy(edgesOf(w))
		if g.Score > opt+tol {
			t.Fatalf("greedy %v exceeds optimal %v", g.Score, opt)
		}
		if g.Score < opt/2-tol {
			t.Fatalf("greedy %v below half of optimal %v", g.Score, opt)
		}
	}
}

func TestGreedyOrderedMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		w := randMatrix(rng, 1+rng.Intn(5), 1+rng.Intn(5), 0.8)
		edges := edgesOf(w)
		want := Greedy(edges)
		// Greedy sorts internally; feeding the pre-sorted order into
		// GreedyOrdered must agree.
		sorted := make([]Edge, len(edges))
		copy(sorted, edges)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && (sorted[j].W > sorted[j-1].W); j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		got := GreedyOrdered(sorted)
		if math.Abs(got.Score-want.Score) > tol {
			t.Fatalf("GreedyOrdered = %v, Greedy = %v", got.Score, want.Score)
		}
	}
}

// TestEarlyTerminationSafety: with a bound at or below the true optimum the
// solver must never prune and must return the exact score; with a bound
// strictly above the optimum it must either prune or return a score below
// the bound (both certify exclusion from the top-k).
func TestEarlyTerminationSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 800; trial++ {
		w := randMatrix(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.7)
		opt := BruteForce(w)

		low := opt * rng.Float64()
		res := HungarianBounded(w, func() float64 { return low })
		if res.Pruned {
			t.Fatalf("pruned with bound %v ≤ optimum %v", low, opt)
		}
		if math.Abs(res.Score-opt) > tol {
			t.Fatalf("bounded score %v != optimum %v", res.Score, opt)
		}

		high := opt + 0.01 + rng.Float64()
		res = HungarianBounded(w, func() float64 { return high })
		if !res.Pruned && res.Score >= high {
			t.Fatalf("not pruned and score %v ≥ bound %v", res.Score, high)
		}
		if !res.Pruned && math.Abs(res.Score-opt) > tol {
			t.Fatalf("completed with wrong score %v (optimum %v)", res.Score, opt)
		}
	}
}

// TestEarlyTerminationSavesIterations verifies the filter actually cuts
// work on instances where the bound is hopeless.
func TestEarlyTerminationSavesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 40
	w := randMatrix(rng, n, n, 0.9)
	full := Hungarian(w)
	cut := HungarianBounded(w, func() float64 { return full.Score * 10 })
	if !cut.Pruned {
		t.Fatal("expected pruning with 10x bound")
	}
	if cut.Iterations >= full.Iterations {
		t.Fatalf("early termination used %d iterations, full run %d", cut.Iterations, full.Iterations)
	}
}

// TestPaperExampleC2 encodes the Figure 1 worked example: the semantic
// overlap of Q and C2 is 4.49 while greedy matching stops at 3.74, because
// greedy's 0.85 edge (Columbia–Southern) blocks the two 0.80 edges
// (Columbia–SC and Charleston–Southern).
func TestPaperExampleC2(t *testing.T) {
	// Rows: LA, Seattle, Columbia, Blaine, BigApple, Charleston
	// Cols: LA, Sacramento, Southern, Blain, SC, Minnesota, NewYorkCity
	w := [][]float64{
		{1.00, 0, 0, 0, 0, 0, 0},    // LA–LA
		{0, 0, 0, 0, 0, 0, 0},       // Seattle
		{0, 0, 0.85, 0, 0.80, 0, 0}, // Columbia–Southern, Columbia–SC
		{0, 0, 0, 0.99, 0, 0, 0},    // Blaine–Blain
		{0, 0, 0, 0, 0, 0, 0.90},    // BigApple–NewYorkCity
		{0, 0, 0.80, 0, 0, 0, 0},    // Charleston–Southern
	}
	exact := Hungarian(w)
	if math.Abs(exact.Score-4.49) > tol {
		t.Fatalf("semantic overlap = %v, want 4.49", exact.Score)
	}
	greedy := Greedy(edgesOf(w))
	if math.Abs(greedy.Score-3.74) > tol {
		t.Fatalf("greedy score = %v, want 3.74", greedy.Score)
	}
}

// TestPaperExampleC1: C1's graph is conflict-free, so greedy and exact agree
// at 4.09 — and a top-1 search by greedy scores would wrongly prefer C1.
func TestPaperExampleC1(t *testing.T) {
	w := [][]float64{
		{1.00, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0.70}, // Seattle–WestCoast
		{0, 0, 0, 0, 0.70, 0}, // Columbia–Lexington
		{0, 0.99, 0, 0, 0, 0}, // Blaine–Blain
		{0, 0, 0, 0, 0, 0},    // BigApple (Appleton below α semantically)
		{0, 0, 0, 0.70, 0, 0}, // Charleston–MtPleasant
	}
	exact := Hungarian(w)
	greedy := Greedy(edgesOf(w))
	if math.Abs(exact.Score-4.09) > tol || math.Abs(greedy.Score-4.09) > tol {
		t.Fatalf("C1 scores exact=%v greedy=%v, want 4.09", exact.Score, greedy.Score)
	}
}

func TestBruteForcePanicsOnWideMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForce accepted 21 columns")
		}
	}()
	BruteForce([][]float64{make([]float64, 21)})
}

func BenchmarkHungarian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 256} {
		w := randMatrix(rng, n, n, 0.5)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Hungarian(w)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "n=16"
	case 64:
		return "n=64"
	default:
		return "n=256"
	}
}

// TestSumRoundsOnce: Sum is the exact sum of its weights rounded once to the
// nearest float64 (math/big at 4096 bits is the reference), so every order
// of the same weights gives the same bits — on α-graph weights, on values of
// every magnitude, and on sums that land halfway between two floats.
func TestSumRoundsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exact := func(ws []float64) float64 {
		acc := new(big.Float).SetPrec(4096)
		for _, w := range ws {
			acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(w))
		}
		f, _ := acc.Float64()
		return f
	}
	half := math.Nextafter(1, 2) - 1 // 2⁻⁵², so 1 + half/2 is a tie
	cases := [][]float64{nil, {0.3}, {0.1, 0.2, 0.3}, {1, half / 2}, {1, half / 2, half / 2}, {1e300, 1, -1e300}, {1, half / 2, 1e-300}}
	for trial := 0; trial < 500; trial++ {
		ws := make([]float64, rng.Intn(40))
		for i := range ws {
			switch trial % 3 {
			case 0:
				ws[i] = 0.8 + 0.2*rng.Float64()
			case 1:
				ws[i] = math.Ldexp(rng.Float64(), rng.Intn(200)-100)
			default:
				ws[i] = float64(9+rng.Intn(12)) / 20
			}
		}
		cases = append(cases, ws)
	}
	for ci, ws := range cases {
		want := exact(ws)
		for perm := 0; perm < 4; perm++ {
			if got := Sum(ws); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d, order %d: %v (%x), exact %v (%x) of %v", ci, perm, got, math.Float64bits(got), want, math.Float64bits(want), ws)
			}
			rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		}
	}
}
