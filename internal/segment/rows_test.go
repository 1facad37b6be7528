package segment

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/matching"
	"repro/internal/sets"
	"repro/internal/sim"
)

// TestRowRoundTrip holds the one row shape (DESIGN.md §3): a repository row
// is its token IDs, and its strings come back through the dictionary. A
// seeded sequence of inserts (with repeated elements, with tokens the
// dictionary lacks, and empty), replacements, deletes, seals, compactions,
// checkpoints and durable reopens (which serve mapped segments) runs against
// a map[name][]string model. After every step Len, LiveSets and SetByName
// must equal the model — each set's distinct elements in first-occurrence
// order, an empty set as [] and never nil — and searches must equal a
// from-scratch engine's over the model's sets, in the memtable as after a
// seal. The model answers each search itself as well (modelAnswer): the
// manager, and a from-scratch engine over the model's sets in a shuffled
// order, must return its names and score bits.
func TestRowRoundTrip(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	pool := ds.Repo.Sets()
	vec := ds.Model.Vector
	opts := testOpts()
	cfg := Config{SealThreshold: 6}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func() *Manager {
				t.Helper()
				m, err := Open(dir, pool[:5], dynamicBuilder(vec), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m := open()
			defer func() { m.Close() }()
			o := newOracle()
			for _, s := range pool[:5] {
				o.insert(s.Name, s.Elements)
			}

			// raw draws a request's elements: a pool set with some of its
			// elements repeated out of order, now and then a token no set
			// holds (twice), now and then nothing.
			fresh := 0
			raw := func() []string {
				if rng.Intn(12) == 0 {
					return nil
				}
				elems := slices.Clone(pool[rng.Intn(len(pool))].Elements)
				for n := rng.Intn(4); n > 0 && len(elems) > 0; n-- {
					elems = slices.Insert(elems, rng.Intn(len(elems)+1), elems[rng.Intn(len(elems))])
				}
				if rng.Intn(3) == 0 {
					fresh++
					tok := fmt.Sprintf("fresh-%d-%d", seed, fresh)
					elems = append(append([]string{tok}, elems...), tok)
				}
				return elems
			}
			liveName := func() string { return o.order[rng.Intn(len(o.order))] }
			check := func(label string) {
				t.Helper()
				if m.Len() != len(o.order) {
					t.Fatalf("%s: Len %d, model %d", label, m.Len(), len(o.order))
				}
				live := m.LiveSets()
				if len(live) != len(o.order) {
					t.Fatalf("%s: %d live sets, model %d", label, len(live), len(o.order))
				}
				for i, rec := range live {
					want := sets.Dedup(o.rows[o.order[i]])
					if rec.Name != o.order[i] || rec.Elements == nil || !slices.Equal(rec.Elements, want) {
						t.Fatalf("%s: live set %d = %q %#v, model %q %v", label, i, rec.Name, rec.Elements, o.order[i], want)
					}
					got, ok := m.SetByName(rec.Name)
					if !ok || got.ID != rec.ID || got.Elements == nil || !slices.Equal(got.Elements, want) {
						t.Fatalf("%s: SetByName(%q) = %+v, %v; want handle %d, %v", label, rec.Name, got, ok, rec.ID, want)
					}
				}
				q := o.rows[liveName()]
				shuffled := o.sets()
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				eng, repo := scratchEngine(shuffled, vec, opts)
				for _, query := range [][]string{q, append(slices.Clone(q), q...), raw()} {
					if len(query) == 0 {
						continue
					}
					assertEquivalent(t, label, m, o.sets(), vec, opts, query)
					want := modelAnswer(o, vec, opts, query)
					got, _, err := m.Search(context.Background(), query, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !sameAnswer(got, want) {
						t.Fatalf("%s: manager answered %v, the model %v (query %v)", label, got, want, query)
					}
					res, _ := eng.Search(query)
					fromScratch := make([]Result, len(res))
					for i, r := range res {
						fromScratch[i] = Result{Name: repo.Set(r.SetID).Name, Score: r.Score}
					}
					if !sameAnswer(fromScratch, want) {
						t.Fatalf("%s: a from-scratch engine over the sets shuffled answered %v, the model %v", label, fromScratch, want)
					}
				}
			}

			check("open")
			ran := make(map[string]int)
			for step := 0; step < 60; step++ {
				label := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(20); {
				case op < 8:
					name := fmt.Sprintf("n-%d", step)
					elems := raw()
					mustInsert(t, m, name, elems)
					o.insert(name, elems)
					label += " insert " + name
					ran["insert"]++
				case op < 12:
					name, elems := liveName(), raw()
					mustInsert(t, m, name, elems)
					o.insert(name, elems)
					label += " replace " + name
					ran["replace"]++
				case op < 15 && len(o.order) > 1:
					name := liveName()
					mustDelete(t, m, name)
					o.delete(name)
					label += " delete " + name
					ran["delete"]++
				case op < 16:
					if err := m.Flush(); err != nil {
						t.Fatal(err)
					}
					label += " seal"
					ran["seal"]++
				case op < 18:
					if err := m.Compact(); err != nil {
						t.Fatal(err)
					}
					label += " compact"
					ran["compact"]++
				case op < 19:
					if err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					label += " checkpoint"
					ran["checkpoint"]++
				default:
					if err := m.Close(); err != nil {
						t.Fatal(err)
					}
					m = open()
					for _, s := range m.sealed {
						if s.mseg == nil {
							t.Fatalf("%s: reopened segment %s is not served from its file", label, s.file)
						}
					}
					label += " reopen"
					ran["reopen"]++
				}
				check(label)
			}
			t.Logf("ops: %v", ran)
		})
	}
}

// modelAnswer is the model's answer to query, computed from the strings and
// the vectors alone: each live set is scored by the dense matching.Hungarian
// over the α-thresholded similarities — 1 between equal elements, sim.Dot of
// their vectors between others — and the first k sets (SO > 0) by the rule,
// score descending and then name, are the answer. Rows are the query's
// distinct elements in ascending order, as a search's are. An element that
// no live set holds has no similarities: a from-scratch index over the live
// sets has no vector for it.
func modelAnswer(o *oracle, vec func(string) ([]float32, bool), opts core.Options, query []string) []Result {
	live := make(map[string]bool)
	for _, elems := range o.rows {
		for _, e := range elems {
			live[e] = true
		}
	}
	query = sets.Dedup(query)
	slices.Sort(query)
	similarity := func(q, e string) float64 {
		if q == e {
			return 1
		}
		vq, ok := vec(q)
		ve, ok2 := vec(e)
		if !live[q] || !ok || !ok2 {
			return 0
		}
		return sim.Dot(vq, ve)
	}
	var ranked []Result
	for _, name := range o.order {
		elems := sets.Dedup(o.rows[name])
		w := make([][]float64, len(query))
		for i, q := range query {
			w[i] = make([]float64, len(elems))
			for j, e := range elems {
				if s := similarity(q, e); s >= opts.Alpha {
					w[i][j] = s
				}
			}
		}
		if so := matching.Hungarian(w).Score; so > 0 {
			ranked = append(ranked, Result{Name: name, Score: so})
		}
	}
	slices.SortFunc(ranked, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return ranked[:min(opts.K, len(ranked))]
}

// BenchmarkCompact times one merge of several sealed segments with
// tombstones: the twitter corpus at scale 0.5 inserted at SealThreshold 256
// and sealed, every fifth set deleted, then compacted, outside any durable
// directory so no checkpoint is timed. allocs/op and B/op are the merge's (DESIGN.md §4:
// it copies token IDs and resolves no string).
func BenchmarkCompact(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.5)
	all := ds.Repo.Sets()
	opts := core.Options{K: 10, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewManager(nil, dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 256})
		for _, s := range all {
			mustInsert(b, m, s.Name, s.Elements)
		}
		if err := m.Flush(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(all); j += 5 {
			mustDelete(b, m, all[j].Name)
		}
		segs, _, dead := m.Segments()
		b.StartTimer()
		if err := m.Compact(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(segs), "segments")
		b.ReportMetric(float64(dead), "tombstones")
	}
}
