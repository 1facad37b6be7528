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

// TestPartitionedSearchUnderMutation is the -race exercise of parallel
// partition refiners: searches run two partitions and two verification
// workers per engine, and a tiny seal threshold makes their snapshots span
// several segments with tombstones, while writers insert, delete, and
// compact concurrently. Every search must match a second search of the same
// pinned View: the snapshot is immutable, so the two must agree byte for
// byte no matter what the writers are doing.
func TestPartitionedSearchUnderMutation(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.OpenData, 0.02)
	all := ds.Repo.Sets()
	nSeed := len(all) / 2
	opts := core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2}.WithDefaults()
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
				res, st, err := v.Search(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				again, _, err := v.Search(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(res) != fmt.Sprint(again) {
					t.Errorf("worker %d query %d: two searches of the same snapshot diverge\nfirst:  %v\nsecond: %v",
						w, i, res, again)
					return
				}
				if st.Segments < 1 {
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
