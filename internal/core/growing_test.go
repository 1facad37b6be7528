package core

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// TestGrowingMatchesNewEngine: after every Append, the engine a Growing
// hands out answers exactly as NewEngine over the same rows does — results
// and Stats counters — and the engines handed out earlier still answer as
// they did, whatever was appended since.
func TestGrowingMatchesNewEngine(t *testing.T) {
	counters := searchCounters
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
	dict := dictOf(t, ds.Repo)
	g := NewGrowing(dict, src, opts)
	for n, row := range all {
		g.Append(row)
		if g.Len() != n+1 || g.Row(n).Name != row.Name {
			t.Fatalf("after %d appends: Len %d, last row %q", n+1, g.Len(), g.Row(n).Name)
		}
		rows := append([]sets.Set(nil), all[:n+1]...)
		ref := NewEngine(sets.SegmentOver(dict, rows), src, opts)
		h := horizon{eng: g.Engine()}
		for _, q := range queries {
			res, st := ref.Search(q)
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
}

// TestGrowingSearchReusesArena: a memtable gains a set per insert, so the
// refinement arena a search draws from the shared pool is one set short for
// the next one. sized regrows it with room to spare, so a search after one
// more Append finds every set-indexed table of the arena, the query masks
// and the token masks where the search before left them.
func TestGrowingSearchReusesArena(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.05)
	src := index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector)
	all := ds.Repo.Sets()
	g := NewGrowing(dictOf(t, ds.Repo), src, Options{K: 3, Alpha: 0.8})
	next := 0
	appendOne := func() {
		g.Append(all[next])
		next++
	}
	for next < 40 {
		appendOne()
	}
	query := all[7].Elements
	// arena reports where the pooled arena's tables are, the scratch holding
	// them, and whether they have room for another set.
	arena := func() (string, *queryScratch, bool) {
		e := g.Engine()
		sc := e.getScratch()
		defer e.scratch.Put(sc)
		a := &sc.refine
		at := fmt.Sprintf("%p %p %p %p %p %p", a.flags, a.states, a.bound, a.terms, a.qBits, a.cBits)
		return at, sc, cap(a.states) > len(a.states)
	}
	g.Engine().Search(query) // sizes the arena for 40 sets, exactly
	for round := 0; ; round++ {
		if round == 100 {
			t.Fatal("the pool never handed the scratch of the search before back")
		}
		appendOne()
		g.Engine().Search(query) // regrows the arena, with room
		before, sc, roomy := arena()
		appendOne()
		g.Engine().Search(query)
		after, again, _ := arena()
		if !roomy || again != sc {
			continue // the pool dropped a scratch (a GC) on the way
		}
		if after != before {
			t.Fatalf("a search after one more Append regrew the arena: %s → %s", before, after)
		}
		break
	}
}
