package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sim"
)

// TestWalkStreamMatchesEagerStream: the tuples a search walks — its probe's
// edges, sorted once (Engine.openStream) — are the eager index.Stream's
// merge, drained through noteTuple, without the tuples of tokens in no live
// set: the same tuples in the same order with the same first flags. So is
// the count of α-neighbors it reports. It holds on the vector, edit and
// opendata shapes, over a source that is not a LazySource, under a probe
// mask, over a tombstoned group whose live tokens demote the tokens only
// deleted sets hold, and over edit similarity rounded down to multiples of
// 0.05 (quantSim), where many tokens share each similarity and the sort's
// re-sort of equal keys decides most of the order; the edit shapes must
// break some ties by token.
func TestWalkStreamMatchesEagerStream(t *testing.T) {
	tw := datagen.GenerateDefault(datagen.Twitter, 0.05)
	od := datagen.GenerateDefault(datagen.OpenData, 0.05)
	type shape struct {
		name string
		g    *Group
		// queries are the benchmark's, and the elements of deleted sets
		// when g has tombstones.
		queries [][]string
	}
	queriesOf := func(ds *datagen.Dataset, g *Group) [][]string {
		var qs [][]string
		for _, q := range datagen.NewBenchmark(ds, 17).Queries {
			qs = append(qs, q.Elements)
		}
		if g.Dead != nil {
			for sid := 0; sid < ds.Repo.Len(); sid += 3 * (ds.Repo.Len()/30 + 1) {
				qs = append(qs, ds.Repo.Elements(sid))
			}
		}
		return qs
	}
	opts := Options{K: 10, Alpha: 0.8}
	vector := NewEngine(tw.Repo, index.NewDynamicExact(dictOf(t, tw.Repo), tw.Model.Vector), opts)
	edit := NewEngine(tw.Repo, index.NewDynamicFunc(dictOf(t, tw.Repo), sim.EditSimilarity{}), opts)
	exact := NewEngine(od.Repo, index.NewExact(od.Repo.Vocabulary(), od.Model.Vector), opts)
	ivf := NewEngine(tw.Repo, index.NewIVF(tw.Repo.Vocabulary(), tw.Model.Vector, 8, 4, 1), Options{K: 10, Alpha: 0.6})
	quantised := NewEngine(tw.Repo, index.NewFuncIndex(tw.Repo.Vocabulary(), quantSim{sim.EditSimilarity{}}), Options{K: 10, Alpha: 0.6})
	masked := tombstoned(vector, 3)
	masked.ProbeLiveOnly = true
	var shapes []shape
	for _, s := range []struct {
		name string
		g    *Group
		ds   *datagen.Dataset
	}{
		{"vector", vector.group(), tw},
		{"edit", edit.group(), tw},
		{"opendata", exact.group(), od},
		{"ivf", ivf.group(), tw},
		{"skip mask", masked, tw},
		{"tombstoned edit", tombstoned(edit, 3), tw},
		{"quantised edit", quantised.group(), tw},
	} {
		shapes = append(shapes, shape{s.name, s.g, queriesOf(s.ds, s.g)})
	}

	for _, sh := range shapes {
		lead := sh.g.lead()
		skipped, demoted, ties := 0, 0, 0
		for qi, q := range sh.queries {
			sc := lead.getScratch()
			query, qids, skip := sh.g.queryIDs(q, lead, sc)
			walk, _, retrieved := lead.openStream(query, qids, skip, sh.g.Opts.Alpha, sh.g.LiveTokens, sc)
			walk = slices.Clone(walk)
			eager := lead.eagerTuples(query, qids, skip, sh.g.LiveTokens, sc)
			if want := len(eager) - len(query); retrieved != want {
				t.Fatalf("%s query %d: %d α-neighbors retrieved, the eager stream holds %d", sh.name, qi, retrieved, want)
			}
			var want []streamTuple
			for i, tup := range eager {
				if tup.tokenID >= 0 {
					want = append(want, tup)
				} else if i >= len(query) {
					demoted++
				}
			}
			if fmt.Sprint(walk) != fmt.Sprint(want) {
				t.Fatalf("%s query %d: the walk's %d tuples differ from the eager stream's %d\nwalk:  %v\neager: %v",
					sh.name, qi, len(walk), len(want), walk, want)
			}
			for i := 1; i < len(walk); i++ {
				if walk[i].sim == walk[i-1].sim && walk[i].tokenID != walk[i-1].tokenID && i >= len(query) {
					ties++
				}
			}
			for _, s := range skip {
				if s {
					skipped++
				}
			}
			lead.putScratch(sc)
		}
		t.Logf("%s: %d queries, %d tuples demoted, %d elements unprobed, %d token tie-breaks", sh.name, len(sh.queries), demoted, skipped, ties)
		switch {
		case sh.name == "skip mask" && skipped == 0:
			t.Errorf("%s: no query element went unprobed", sh.name)
		case sh.name == "tombstoned edit" && demoted == 0:
			t.Errorf("%s: no retrieved tuple was demoted", sh.name)
		case (sh.name == "edit" || sh.name == "quantised edit") && ties == 0:
			t.Errorf("%s: no two tokens tied on similarity", sh.name)
		}
	}
}
