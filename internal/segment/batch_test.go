package segment

import (
	"context"
	"testing"

	"repro/internal/datagen"
)

// batchQueries builds a mixed query load over the live records: several
// live sets plus a repeated query.
func batchQueries(recs []SetRecord, n int) [][]string {
	var qs [][]string
	for i := 0; i < n; i++ {
		qs = append(qs, recs[(i*5)%len(recs)].Elements)
	}
	qs = append(qs, recs[1].Elements, recs[1].Elements)
	return qs
}

// TestSearchBatchMatchesSerial is the batch-path contract: for every
// dataset kind, SearchBatch must return byte-identical results — IDs,
// names, scores, verification flags, in the same order — as per-query
// Search against the same collection, sequentially and with batch workers.
func TestSearchBatchMatchesSerial(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.01)
			all := ds.Repo.Sets()
			nSeed := len(all) * 3 / 5
			m := NewManager(all[:nSeed], dynamicBuilder(ds.Model.Vector), testOpts(),
				Config{SealThreshold: 7, MaxSegments: 2})
			// Mutate so the snapshot spans memtable + sealed segments with
			// tombstones — the layout batch consistency must cope with.
			for _, s := range all[nSeed:] {
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					t.Fatal(err)
				}
				maintain(m)
			}
			if _, err := m.Delete(all[2].Name); err != nil {
				t.Fatal(err)
			}

			queries := batchQueries(m.LiveSets(), 6)
			ctx := context.Background()
			want := make([][]Result, len(queries))
			for i, q := range queries {
				res, _, err := m.Search(ctx, q, 0)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}
			for _, workers := range []int{1, 4} {
				got, stats, err := m.SearchBatch(ctx, queries, 0, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(got) != len(queries) || len(stats) != len(queries) {
					t.Fatalf("workers=%d: %d results / %d stats for %d queries",
						workers, len(got), len(stats), len(queries))
				}
				for i := range queries {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("workers=%d query %d: %d results, want %d",
							workers, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("workers=%d query %d rank %d: %+v, want %+v",
								workers, i, j, got[i][j], want[i][j])
						}
					}
					if stats[i].Candidates == 0 && len(want[i]) > 0 {
						t.Fatalf("workers=%d query %d: stats not populated", workers, i)
					}
				}
			}
		})
	}
}

// TestViewIsolation: a View acquired before a mutation keeps answering from
// its snapshot — the consistency SearchBatch promises every query in a
// batch.
func TestViewIsolation(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	m := NewManager(all[:len(all)-1], dynamicBuilder(ds.Model.Vector), testOpts(),
		Config{SealThreshold: 7, MaxSegments: 2})
	query := all[0].Elements
	ctx := context.Background()

	before, _, err := m.Search(ctx, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := m.AcquireView(0)
	// Mutations after the view: a replacement of the top set and an insert.
	if _, err := m.Delete(all[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(all[len(all)-1].Name, all[len(all)-1].Elements); err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Search(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(before) {
		t.Fatalf("view search: %d results, want %d (pre-mutation)", len(got), len(before))
	}
	for i := range before {
		if got[i] != before[i] {
			t.Fatalf("rank %d: view returned %+v, want pre-mutation %+v", i, got[i], before[i])
		}
	}
	// A fresh search must see the mutation (the deleted set is gone).
	after, _, err := m.Search(ctx, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.Name == all[0].Name {
			t.Fatalf("deleted set %q still in fresh results", all[0].Name)
		}
	}
}

func TestSearchBatchCancel(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	m := NewManager(all, dynamicBuilder(ds.Model.Vector), testOpts(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := batchQueries(m.LiveSets(), 4)
	for _, workers := range []int{1, 3} {
		if _, _, err := m.SearchBatch(ctx, queries, 0, workers); err == nil {
			t.Fatalf("workers=%d: canceled batch returned nil error", workers)
		}
	}
}
