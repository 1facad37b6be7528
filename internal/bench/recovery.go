package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
)

// RecoveryWorkload measures the durable engine's restart path (DESIGN.md
// §8) end to end: seeding a fresh data directory (the initial checkpoint),
// write throughput with the WAL on, a graceful restart (checkpoint-covered,
// zero replay), and a crash restart (checkpoint + full WAL replay of every
// post-checkpoint write). After each reopen the same query must return
// byte-identical results — the benchmark doubles as a smoke check of the
// recovery invariant.
func (r *Runner) RecoveryWorkload() {
	r.header("Durability: checkpoint, WAL, and restart/recovery")
	for _, kind := range []datagen.Kind{datagen.Twitter, datagen.OpenData} {
		b := r.bundleFor(kind)
		all := b.ds.Repo.Sets()
		nSeed := len(all) * 7 / 10
		opts := core.Options{
			K:          r.cfg.K,
			Alpha:      r.cfg.Alpha,
			Partitions: r.cfg.Partitions,
			Workers:    r.cfg.Workers,
		}.WithDefaults()
		build := vectorSource(b.ds)
		dir, err := os.MkdirTemp("", "koios-bench-recovery-*")
		if err != nil {
			r.printf("  %-8s tempdir error: %v\n", kind, err)
			return
		}
		defer os.RemoveAll(dir)

		fail := func(stage string, err error) bool {
			if err != nil {
				r.printf("  %-8s %s error: %v\n", kind, stage, err)
			}
			return err != nil
		}

		// Seed a fresh directory: the open cost is dominated by the
		// initial checkpoint (segment snapshot + dictionary + manifest).
		start := time.Now()
		m, err := segment.Open(dir, all[:nSeed], build, opts,
			segment.Config{SealThreshold: 64, MaxSegments: 4})
		if fail("seed open", err) {
			return
		}
		seedDur := time.Since(start)

		// Writes with the WAL on: held-out inserts plus every-4th deletes,
		// crossing seal checkpoints and compactions.
		start = time.Now()
		writes := 0
		for i, s := range all[nSeed:] {
			if _, err := m.Insert(s.Name, s.Elements); fail("insert", err) {
				return
			}
			writes++
			if i%4 == 3 {
				if _, err := m.Delete(all[i].Name); fail("delete", err) {
					return
				}
				writes++
			}
		}
		writeDur := time.Since(start)

		ctx := context.Background()
		query := b.bench.Queries[0].Elements
		want, _, err := m.Search(ctx, query, 0)
		if fail("search", err) {
			return
		}

		// Graceful restart: Close checkpoints, so the reopen loads
		// snapshots and replays nothing.
		if fail("close", m.Close()) {
			return
		}
		start = time.Now()
		m, err = segment.Open(dir, nil, build, opts,
			segment.Config{SealThreshold: 1 << 20, MaxSegments: 4})
		if fail("clean reopen", err) {
			return
		}
		cleanDur := time.Since(start)
		if fail("clean reopen verify", verifySame(ctx, m, query, want)) {
			return
		}

		// Crash restart: the huge seal threshold keeps every further write
		// in the WAL; abandoning the manager without Close simulates the
		// crash, and the reopen pays a full replay.
		replayed := 0
		for i := 1; i < len(all); i += 3 {
			if _, err := m.Insert(all[i].Name+"-crash", all[(i+1)%len(all)].Elements); fail("post-checkpoint insert", err) {
				return
			}
			replayed++
		}
		want, _, err = m.Search(ctx, query, 0)
		if fail("search", err) {
			return
		}
		start = time.Now()
		m2, err := segment.Open(dir, nil, build, opts,
			segment.Config{SealThreshold: 64, MaxSegments: 4})
		if fail("crash reopen", err) {
			return
		}
		replayDur := time.Since(start)
		if fail("crash reopen verify", verifySame(ctx, m2, query, want)) {
			return
		}
		// m stays un-Closed: it is the "crashed" process, and closing it
		// would checkpoint into the directory m2 now owns.
		m2.Close()

		r.printf("  %-8s seed %5d sets + checkpoint %8s   %4d writes @ %8s/op (%s on disk)\n",
			kind, nSeed, seedDur.Round(time.Millisecond), writes, avg(writeDur, writes), dirSize(dir))
		r.printf("  %-8s restart: clean %8s (no replay)   crash %8s (replay %d ops)   results identical ✓\n",
			kind, cleanDur.Round(time.Millisecond), replayDur.Round(time.Millisecond), replayed)
	}
}

// verifySame re-runs the query on a reopened manager and demands
// byte-identical (name, score, verified) results.
func verifySame(ctx context.Context, m *segment.Manager, query []string, want []segment.Result) error {
	got, _, err := m.Search(ctx, query, 0)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("recovered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Score != want[i].Score || got[i].Verified != want[i].Verified {
			return fmt.Errorf("rank %d: recovered %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// dirSize sums the data directory's file sizes for the report.
func dirSize(dir string) string {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	switch {
	case total >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(total)/(1<<20))
	case total >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(total)/(1<<10))
	}
	return fmt.Sprintf("%d B", total)
}
