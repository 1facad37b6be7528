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
// runs — each one a SparseSolver verdict, the engine's only verifier — and
// re-solves it with the dense Hungarian on the densified α-graph under the
// bound as it stands when the engine's solver returns, or without one for
// the θlb seed's solves, which have none. With one
// worker the bound cannot move during a verification, so the verdicts must
// be equal; with several it can only rise, so an engine prune must still be
// a dense prune (the converse may lag a concurrent θlb update). A completed
// matching must carry the dense solver's score bit for bit — both solvers
// report a matching's score as matching.Sum of its weights, and on these
// corpora they end on optima whose weights sum to the same real number.
// Each leg searches five queries, and more until one of its verifications
// has completed: the refinement filters settle most searches of some corpora
// without one.
func TestVerifyMatchesDenseReference(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		ds := datagen.GenerateDefault(kind, 0.05)
		src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
		queries := datagen.NewBenchmark(ds, 23).Queries
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
					var at float64
					var refBound func() float64
					if bound != nil {
						at = bound()
						refBound = func() float64 { return at }
					}
					ref := matching.HungarianBounded(w, refBound)
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
				for qi, q := range queries {
					if qi >= 5 && solved.Load() > 0 {
						break
					}
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
