package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/matching"
)

// TestVerifyMatchesDenseReference intercepts every verification the engine
// runs and re-solves it with the dense Hungarian on the densified α-graph
// under the bound as it stands when the engine's solver returns. With one
// worker the bound cannot move during a verification, so the verdicts must
// be equal; with several it can only rise, so an engine prune must still be
// a dense prune (the converse may lag a concurrent θlb update). A completed
// matching must carry the dense solver's score bit for bit — the optimum
// matching is unique on these corpora, and both solvers sum it in row order.
func TestVerifyMatchesDenseReference(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
		queries := datagen.NewBenchmark(ds, 23).Queries
		if len(queries) > 5 {
			queries = queries[:5]
		}
		for _, exact := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s exact=%v workers=%d", kind, exact, workers)
				eng := NewEngine(ds.Repo, src, Options{K: 10, Alpha: 0.8, ExactScores: exact, Workers: workers})
				var solved, pruned atomic.Int64
				eng.verifyHook = func(rows, cols int, edges []matching.Edge, bound func() float64, res matching.Result) {
					w := make([][]float64, rows)
					for i := range w {
						w[i] = make([]float64, cols)
					}
					for _, ed := range edges {
						w[ed.Q][ed.C] = ed.W
					}
					at := bound()
					ref := matching.HungarianBounded(w, func() float64 { return at })
					if res.Pruned != ref.Pruned && (workers == 1 || res.Pruned) {
						t.Errorf("%s: engine pruned=%v, dense pruned=%v at bound %v\nedges: %v",
							label, res.Pruned, ref.Pruned, at, edges)
					}
					if res.Pruned {
						pruned.Add(1)
						return
					}
					solved.Add(1)
					if want := matching.Hungarian(w).Score; res.Score != want {
						t.Errorf("%s: engine score %v, dense %v (differ by %g)\nedges: %v",
							label, res.Score, want, res.Score-want, edges)
					}
				}
				for _, q := range queries {
					eng.Search(q.Elements)
				}
				if solved.Load() == 0 {
					t.Errorf("%s: no verification completed — nothing was compared", label)
				}
				t.Logf("%s: %d completed, %d pruned", label, solved.Load(), pruned.Load())
			}
		}
	}
}
