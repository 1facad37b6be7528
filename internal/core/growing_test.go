package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// TestGrowingMatchesNewEngine: after every Append, the engine a Growing
// hands out answers exactly as NewEngine over the same rows does — results
// and Stats counters, on queries that cut the stream (the cut reads the
// cardinality order) and on ones that do not — and the engines handed out
// earlier still answer as they did, whatever was appended since.
//
// MemCandBytes is left out: a chain lists a token's sets in set order, the
// CSR of an engine NewEngine partitioned in partition order, and the order
// in which one tuple's candidates are visited shows in how full an iUB bucket
// gets before the tuple's prune, which is what that estimate measures.
func TestGrowingMatchesNewEngine(t *testing.T) {
	counters := func(res []Result, st Stats) string {
		st.MemCandBytes = 0
		return searchCounters(res, st)
	}
	ds := datagen.GenerateDefault(datagen.OpenData, 0.05)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	all := ds.Repo.Sets()[:48]
	opts := Options{K: 3, Alpha: 0.8, Partitions: 1, ExactScores: true}
	queries := [][]string{all[0].Elements, all[7].Elements, all[20].Elements[:3], all[40].Elements}

	type horizon struct {
		eng  *Engine
		want []string
	}
	var horizons []horizon
	cuts := 0
	g := NewGrowing(ds.Repo.Dict(), src, opts)
	for n, row := range all {
		g.Append(row)
		if g.Len() != n+1 || g.Row(n).Name != row.Name {
			t.Fatalf("after %d appends: Len %d, last row %q", n+1, g.Len(), g.Row(n).Name)
		}
		rows := append([]sets.Set(nil), all[:n+1]...)
		ref := NewEngine(sets.SegmentOver(ds.Repo.Dict(), rows), src, opts)
		h := horizon{eng: g.Engine()}
		for _, q := range queries {
			res, st := ref.Search(q)
			if st.StreamCut {
				cuts++
			}
			h.want = append(h.want, counters(res, st))
		}
		horizons = append(horizons, h)
		if n%6 != 5 && n != len(all)-1 {
			continue
		}
		for hn, h := range horizons {
			for qi, q := range queries {
				res, st := h.eng.Search(q)
				if got := counters(res, st); got != h.want[qi] {
					t.Fatalf("%d rows appended, engine of %d rows, query %d:\n got %s\nwant %s", n+1, hn+1, qi, got, h.want[qi])
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no reference search cut its stream; the test wants some to")
	}
}
