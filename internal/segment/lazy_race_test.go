package segment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// searchEagerView reruns a query against the exact same immutable snapshot
// a View pinned, but through the eager (cut-off-disabled) pipeline: the
// View's own group — its engines, tombstones and live tokens — searched
// with DisableLazy.
func searchEagerView(v *View, ctx context.Context, query []string) ([]Result, core.Stats, error) {
	g := *v.group
	g.Opts.DisableLazy = true
	gres, stats, err := g.SearchContext(ctx, query)
	if err != nil {
		return nil, stats, err
	}
	return v.resolve(gres), stats, nil
}

// TestLazyPumpUnderMutation is the -race producer/consumer exercise of the
// lazy block pump (DESIGN.md §10): searches run the cut-off pipeline —
// tiny LazyBlock so every query crosses many epoch barriers, and a tiny
// seal threshold so snapshots span several segments with tombstones —
// while writers insert, delete, and compact concurrently. Every search
// must match the eager pipeline run against the same pinned snapshot: the
// snapshot is immutable, so the two must agree byte for byte no matter
// what the writers are doing.
func TestLazyPumpUnderMutation(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.02)
	all := ds.Repo.Sets()
	nSeed := len(all) / 2
	opts := core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, LazyBlock: 8}.WithDefaults()
	m := NewManager(all[:nSeed], dynamicBuilder(ds.Model.Vector), opts,
		Config{SealThreshold: 5, MaxSegments: 2})

	queries := datagen.NewBenchmark(ds, 23).Queries
	var stop atomic.Bool
	var writer, readers sync.WaitGroup

	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; !stop.Load(); i++ {
			s := all[nSeed+rng.Intn(len(all)-nSeed)]
			if rng.Intn(3) == 0 {
				if _, err := m.Delete(s.Name); err != nil {
					t.Error(err)
					return
				}
			} else {
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					t.Error(err)
					return
				}
			}
			if i%25 == 24 {
				if err := m.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < 30; i++ {
				q := queries[(w*30+i)%len(queries)].Elements
				v := m.AcquireView(0)
				lres, lst, err := v.Search(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				eres, _, err := searchEagerView(v, context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(lres) != fmt.Sprint(eres) {
					t.Errorf("worker %d query %d: lazy diverges from eager on the same snapshot\nlazy:  %v\neager: %v",
						w, i, lres, eres)
					return
				}
				if lst.Segments < 1 {
					t.Errorf("worker %d query %d: snapshot spanned no segments", w, i)
					return
				}
			}
		}(w)
	}

	readers.Wait()
	stop.Store(true)
	writer.Wait()
}
