package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
	"repro/internal/sets"
)

// MixedWorkload exercises the segmented engine's mutation path (DESIGN.md
// §4): the collection starts at 70% of the dataset, then a deterministic
// op mix of searches, inserts (from the held-out tail), replacements, and
// deletes runs against it — first single-threaded for clean per-op
// latencies, then with concurrent readers against one writer for wall-clock
// throughput under contention. Segment layout (seals, compactions,
// tombstones) is reported alongside, since it is what the mutation path
// pays for read amplification. Compactions are the maintenance scheduler's,
// as in a served collection.
func (r *Runner) MixedWorkload() {
	r.header("Mixed read/write workload (segmented engine)")
	for _, kind := range []datagen.Kind{datagen.Twitter, datagen.OpenData} {
		b := r.bundleFor(kind)
		all := b.ds.Repo.Sets()
		nSeed := len(all) * 7 / 10
		mk := func() (*collection.Registry, *segment.Manager) {
			reg := collection.NewRegistry(all[:nSeed], collection.Config{
				Build: vectorSource(b.ds),
				Opts: core.Options{
					K:          r.cfg.K,
					Alpha:      r.cfg.Alpha,
					Partitions: r.cfg.Partitions,
					Workers:    r.cfg.Workers,
				}.WithDefaults(),
				SegCfg: segment.Config{SealThreshold: 64, MaxSegments: 4},
			})
			return reg, reg.Default().Manager()
		}

		// Phase 1: sequential op mix — 70% search, 15% insert, 10%
		// replace, 5% delete, fully deterministic.
		reg, m := mk()
		defer reg.Close()
		queries := b.bench.Queries
		ops := 4 * len(queries)
		if ops > 400 {
			ops = 400
		}
		rng := rand.New(rand.NewSource(7))
		var tSearch, tWrite time.Duration
		var nSearch, nInsert, nDelete int
		next := nSeed
		ctx := context.Background()
		for i := 0; i < ops; i++ {
			switch p := rng.Intn(100); {
			case p < 70:
				q := queries[rng.Intn(len(queries))].Elements
				start := time.Now()
				if _, _, err := m.Search(ctx, q, 0); err != nil {
					r.printf("  %-8s search error: %v\n", kind, err)
					return
				}
				tSearch += time.Since(start)
				nSearch++
			case p < 85 && next < len(all):
				s := all[next]
				next++
				start := time.Now()
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					r.printf("  %-8s insert error: %v\n", kind, err)
					return
				}
				tWrite += time.Since(start)
				nInsert++
			case p < 95:
				s := all[rng.Intn(next)]
				start := time.Now()
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					r.printf("  %-8s replace error: %v\n", kind, err)
					return
				}
				tWrite += time.Since(start)
				nInsert++
			default:
				start := time.Now()
				m.Delete(all[rng.Intn(next)].Name)
				tWrite += time.Since(start)
				nDelete++
			}
		}
		sealed, memSets, tombstones := m.Segments()
		r.printf("  %-8s sequential: %4d searches @ %8s   %3d inserts + %2d deletes @ %8s/op   layout: %d segs, %d memtable, %d tombstones\n",
			kind, nSearch, avg(tSearch, nSearch), nInsert, nDelete, avg(tWrite, nInsert+nDelete),
			sealed, memSets, tombstones)

		// Phase 2: concurrent — 4 readers spin against 1 writer replaying
		// the same mutation mix; throughput is wall-clock ops/s.
		reg, m = mk()
		defer reg.Close()
		var stop atomic.Bool
		var reads atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for !stop.Load() {
					q := queries[rng.Intn(len(queries))].Elements
					if _, _, err := m.Search(ctx, q, 0); err != nil {
						return
					}
					reads.Add(1)
				}
			}(g)
		}
		writes := 0
		wStart := time.Now()
		deadline := wStart.Add(300 * time.Millisecond)
		wrng := rand.New(rand.NewSource(11))
		next = nSeed
		// Drain the held-out tail, then keep churning replacements until
		// the deadline so the readers race real write traffic throughout.
		for next < len(all) || time.Now().Before(deadline) {
			var s sets.Set
			if next < len(all) {
				s = all[next]
				next++
			} else {
				s = all[wrng.Intn(len(all))]
			}
			if _, err := m.Insert(s.Name, s.Elements); err != nil {
				break
			}
			writes++
			if wrng.Intn(4) == 0 {
				m.Delete(all[wrng.Intn(len(all))].Name)
				writes++
			}
		}
		wallW := time.Since(wStart)
		stop.Store(true)
		wg.Wait()
		r.printf("  %-8s concurrent: %5.0f writes/s while %d searches completed (4 readers, wait-free snapshots)\n",
			kind, float64(writes)/wallW.Seconds(), reads.Load())
	}
}

func avg(d time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%v", (d / time.Duration(n)).Round(time.Microsecond))
}
