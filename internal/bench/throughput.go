package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
)

// Throughput is the serving stack's correctness smoke (DESIGN.md §9): batch
// results must be byte-identical to per-query searches on every dataset
// kind — a divergence returns an error so CI can gate on it. Serving
// throughput and latency are measured by benchmark/run.sh, through the real
// HTTP stack.
func (r *Runner) Throughput() error {
	r.header("Serving stack: batch search ≡ serial search")
	// The managers below run the serving configuration (see managerFor),
	// whatever partition count the header printed.
	r.printf("  (serving config: partitions=1, verify-workers=1 per query)\n")
	ctx := context.Background()
	for _, kind := range datagen.Kinds() {
		b := r.bundleFor(kind)
		m := r.managerFor(b)
		queries := benchQueries(b)
		batch, _, err := m.SearchBatch(ctx, queries, 0, 4)
		if err != nil {
			return fmt.Errorf("throughput: %s batch: %w", kind, err)
		}
		for i, q := range queries {
			want, _, err := m.Search(ctx, q, 0)
			if err != nil {
				return fmt.Errorf("throughput: %s search: %w", kind, err)
			}
			if err := sameResults(batch[i], want); err != nil {
				return fmt.Errorf("throughput: %s query %d: batch diverged from serial: %w", kind, i, err)
			}
		}
		r.printf("  %-8s batch ≡ serial: ok (%d queries, byte-identical results and scores)\n",
			kind, len(queries))
	}
	return nil
}

// managerFor builds a segmented manager over the bundle's full dataset in
// the serving configuration: one partition and one verification worker per
// query, because under a worker pool the parallelism comes from concurrent
// queries.
func (r *Runner) managerFor(b *bundle) *segment.Manager {
	return segment.NewManager(b.ds.Repo.Sets(), vectorSource(b.ds), core.Options{
		K:          r.cfg.K,
		Alpha:      r.cfg.Alpha,
		Partitions: 1,
		Workers:    1,
	}.WithDefaults(), segment.Config{})
}

// benchQueries extracts the element slices of the bundle's benchmark.
func benchQueries(b *bundle) [][]string {
	out := make([][]string, len(b.bench.Queries))
	for i, q := range b.bench.Queries {
		out[i] = q.Elements
	}
	return out
}

// sameResults demands byte-identical result lists: same order, IDs, names,
// scores (bit-for-bit), and verification flags.
func sameResults(got, want []segment.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
