package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
)

// Throughput measures the serving stack of DESIGN.md §9: query throughput
// (QPS) and latency percentiles versus worker count, and the batch search
// path. It doubles as a correctness smoke: batch results must be
// byte-identical to per-query searches on every dataset kind — a divergence
// returns an error so CI can gate on it.
func (r *Runner) Throughput() error {
	r.header("Serving throughput: batch search, worker pool")
	// Every measurement below runs the serving configuration — one
	// partition and one verification worker per query (see managerFor) —
	// regardless of the runner's global partition count in the header.
	r.printf("  (serving config: partitions=1, verify-workers=1 per query; concurrency comes from the pool)\n")
	ctx := context.Background()

	// Batch ≡ serial on every dataset kind (the batch path must be a pure
	// amortization, never a different search).
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

	// QPS and latency vs worker count, after one full warm-up pass. On a
	// single-core box the curve is flat by construction — the printed
	// GOMAXPROCS says so.
	r.printf("  (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	for _, kind := range []datagen.Kind{datagen.Twitter, datagen.OpenData} {
		b := r.bundleFor(kind)
		m := r.managerFor(b)
		queries := benchQueries(b)
		workload := buildWorkload(queries, 120)
		for _, q := range queries {
			if _, _, err := m.Search(ctx, q, 0); err != nil {
				return fmt.Errorf("throughput: %s warmup: %w", kind, err)
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			qps, p50, p95, p99, err := serveWorkload(ctx, m, workload, workers)
			if err != nil {
				return fmt.Errorf("throughput: %s workers=%d: %w", kind, workers, err)
			}
			r.printf("  %-8s workers %2d: %7.1f qps   p50 %8s  p95 %8s  p99 %8s\n",
				kind, workers, qps, p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
		}
	}
	return nil
}

// managerFor builds a segmented manager over the bundle's full dataset in
// the serving configuration: one partition and one verification worker per
// query, because under a worker pool the parallelism comes from concurrent
// queries — intra-query fan-out would oversubscribe the cores and flatten
// the QPS-vs-workers curve.
func (r *Runner) managerFor(b *bundle) *segment.Manager {
	return segment.NewManager(b.ds.Repo.Sets(), func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, b.ds.Model.Vector)
	}, core.Options{
		K:          r.cfg.K,
		Alpha:      r.cfg.Alpha,
		Partitions: 1,
		Workers:    1,
	}.WithDefaults(), segment.Config{ForegroundCompaction: true})
}

// benchQueries extracts the element slices of the bundle's benchmark.
func benchQueries(b *bundle) [][]string {
	out := make([][]string, len(b.bench.Queries))
	for i, q := range b.bench.Queries {
		out[i] = q.Elements
	}
	return out
}

// buildWorkload replays the query set in a deterministic shuffled order
// until it holds about n entries — the repeating traffic shape a served
// collection sees.
func buildWorkload(queries [][]string, n int) [][]string {
	rng := rand.New(rand.NewSource(42))
	out := make([][]string, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(queries)) {
			out = append(out, queries[i])
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// serveWorkload drains the workload with the given number of worker
// goroutines against one manager, returning wall-clock QPS and per-query
// latency percentiles — the serving shape of the HTTP worker pool, without
// the HTTP.
func serveWorkload(ctx context.Context, m *segment.Manager, workload [][]string, workers int) (qps float64, p50, p95, p99 time.Duration, err error) {
	lat := make([]time.Duration, len(workload))
	var next atomic.Int64
	var wg sync.WaitGroup
	var errOnce sync.Once
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(workload) {
					return
				}
				qStart := time.Now()
				if _, _, serr := m.Search(ctx, workload[i], 0); serr != nil {
					errOnce.Do(func() { err = serr })
					return
				}
				lat[i] = time.Since(qStart)
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	wall := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	return float64(len(workload)) / wall.Seconds(), pick(0.50), pick(0.95), pick(0.99), nil
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
