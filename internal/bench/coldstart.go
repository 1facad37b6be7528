package bench

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/store"
)

// coldStartReps is how many times each checkpointed directory is reopened.
const coldStartReps = 5

// ColdStart is the restart smoke of the mmap-served snapshots (DESIGN.md
// §13): per dataset kind it checkpoints a multi-segment directory and
// reopens it repeatedly; every reopen must answer the probe query
// byte-identically to the manager that wrote the directory — the experiment
// exits nonzero on any divergence. Open time is measured by
// benchmark/run.sh (setup.open_s, segment.reopen_ms).
func (r *Runner) ColdStart() error {
	r.header("Cold start: reopen from mmap-served snapshots")
	for _, kind := range datagen.Kinds() {
		nSets, nSegs, err := r.coldStart(kind)
		if err != nil {
			return fmt.Errorf("coldstart %s: %w", kind, err)
		}
		r.printf("  %-8s %5d sets / %d segments: %d reopens, results identical ✓\n",
			kind, nSets, nSegs, coldStartReps)
	}
	return nil
}

// coldStart builds one checkpoint-covered durable directory for kind and
// checks every reopen against the writer's answer, returning the set and
// segment counts.
func (r *Runner) coldStart(kind datagen.Kind) (nSets, nSegs int, err error) {
	b := r.bundleFor(kind)
	all := b.ds.Repo.Sets()
	opts := core.Options{
		K:          r.cfg.K,
		Alpha:      r.cfg.Alpha,
		Partitions: r.cfg.Partitions,
		Workers:    r.cfg.Workers,
	}.WithDefaults()
	build := func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, b.ds.Model.Vector)
	}
	dir, err := os.MkdirTemp("", "koios-bench-coldstart-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	// Seed a multi-segment directory: a small seal threshold spreads the
	// collection across several snapshots, and Close checkpoints the tail,
	// so the reopens below replay nothing — they are pure segment loads.
	m, err := segment.Open(dir, nil, build, opts,
		segment.Config{SealThreshold: len(all)/4 + 1, MaxSegments: 64})
	if err != nil {
		return 0, 0, err
	}
	for _, s := range all {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			return 0, 0, err
		}
	}
	ctx := context.Background()
	query := b.bench.Queries[0].Elements
	want, _, err := m.Search(ctx, query, 0)
	if err != nil {
		return 0, 0, err
	}
	if err := m.Close(); err != nil {
		return 0, 0, err
	}
	man, err := store.LoadManifest(store.OS, dir)
	if err != nil || man == nil {
		return 0, 0, fmt.Errorf("manifest after seed: %v", err)
	}

	reopenCfg := segment.Config{SealThreshold: 1 << 20, MaxSegments: 64}
	for rep := 0; rep < coldStartReps; rep++ {
		m, err := segment.Open(dir, nil, build, opts, reopenCfg)
		if err != nil {
			return 0, 0, fmt.Errorf("reopen: %w", err)
		}
		if err := verifySame(ctx, m, query, want); err != nil {
			return 0, 0, fmt.Errorf("reopened results diverge: %w", err)
		}
		if err := m.Close(); err != nil {
			return 0, 0, err
		}
	}
	return len(all), len(man.Segments), nil
}
