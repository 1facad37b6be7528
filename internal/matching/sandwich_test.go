package matching

import (
	"math/rand"
	"testing"
)

func maxima(w [][]float64, cols int) (rowMax, colMax []float64, colRows [][]int32) {
	rowMax = make([]float64, len(w))
	colMax = make([]float64, cols)
	colRows = make([][]int32, cols)
	for i, row := range w {
		for j, v := range row {
			if v <= 0 {
				continue
			}
			if v > rowMax[i] {
				rowMax[i] = v
			}
			if v > colMax[j] {
				colMax[j] = v
			}
			colRows[j] = append(colRows[j], int32(i))
		}
	}
	return rowMax, colMax, colRows
}

// TestSandwichPruneSound: a true SandwichPrune certifies the true optimum is
// below the bound, exactly like a Pruned HungarianBounded result.
func TestSandwichPruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fired := 0
	for trial := 0; trial < 4000; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		w := randMatrix(rng, rows, cols, 0.5)
		rowMax, colMax, colRows := maxima(w, cols)
		opt := Hungarian(w).Score
		bound := opt*(0.5+rng.Float64()) + 0.05
		if SandwichPrune(rowMax, colMax, colRows, func() float64 { return bound }) {
			fired++
			if opt >= bound {
				t.Fatalf("trial %d: pruned but optimum %v ≥ bound %v", trial, opt, bound)
			}
		} else if hb := HungarianBounded(w, func() float64 { return bound }); hb.Pruned && false {
			_ = hb // sandwich may decline where the solver prunes late; only soundness is required
		}
	}
	if fired == 0 {
		t.Fatal("SandwichPrune never fired")
	}
	if SandwichPrune([]float64{1, 1}, []float64{1, 1}, nil, nil) {
		t.Fatal("nil bound must never prune")
	}
}

// TestSandwichPruneSupersetOfEntryCheck: whenever the solver's entry label-sum
// check would prune, the sandwich prunes too (the sandwich consults the same
// row-maximum sum plus the column dual), so falling through to the solver
// after a false SandwichPrune never hits the entry prune.
func TestSandwichPruneSupersetOfEntryCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		w := randMatrix(rng, rows, cols, 0.5)
		rowMax, colMax, colRows := maxima(w, cols)
		labelSum := 0.0
		for _, v := range rowMax {
			labelSum += v
		}
		bound := labelSum + rng.NormFloat64()*0.1
		entryPrunes := labelSum < bound-BoundEps
		if entryPrunes && !SandwichPrune(rowMax, colMax, colRows, func() float64 { return bound }) {
			t.Fatalf("trial %d: entry check prunes (labelSum %v < bound %v) but sandwich does not",
				trial, labelSum, bound)
		}
	}
}
