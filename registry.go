package koios

import (
	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/sets"
)

// Quota bounds one collection of a Registry: live-set count and summed
// element bytes checked at Insert, a searches-per-second token bucket and
// a concurrent-search cap checked at admission by the HTTP server. The
// zero value is unlimited everything.
type Quota = collection.Quota

// Refusal reports an Insert refused before it applied anything; distinguish
// it with errors.As and read its Code. "quota_exceeded": the insert would
// exceed the collection's sets or bytes quota (Resource, Limit, Used and
// Requested say which and by how much). "maintenance_backlog": the
// collection's maintenance debt crossed the slowdown or stall threshold
// (Stalled and Debt say which), and RetryAfter suggests a client backoff.
type Refusal = collection.Refusal

// MaintenanceConfig is the policy of background maintenance (DESIGN.md
// §15): one scheduler per Registry — and per standalone engine — owns
// every collection's compactions and checkpoints under a global
// concurrency cap (Workers), picks the next collection by the same
// weighted fair-share rule the HTTP server's search pool uses, retries a
// failed round after a capped exponential backoff (50 ms doubling to 5 s),
// and degrades writes RocksDB-style — inserts on a collection whose
// backlog crosses the slowdown/stall thresholds are refused with a
// maintenance_backlog *Refusal instead of silently slowing down. The zero
// value is the default policy: the scheduler's default worker count and
// thresholds derived from MaxSegments.
type MaintenanceConfig = collection.MaintenanceConfig

// ErrCollectionExists is returned by Registry.Create for a taken name.
var ErrCollectionExists = collection.ErrExists

// ErrCollectionNotFound is returned by Registry.Drop for an unknown name.
var ErrCollectionNotFound = collection.ErrNotFound

// ErrDefaultCollection is returned by Registry.Drop on "default", which
// always exists.
var ErrDefaultCollection = collection.ErrDefault

// DefaultCollection is the name of a Registry's always-present default
// collection.
const DefaultCollection = collection.DefaultName

// Registry owns N named collections served by one process (DESIGN.md §14),
// each a fully independent Engine — own dictionary, segments, and (when
// durable) own sub-directory with WAL and manifest — plus per-collection
// quotas. Registries are safe for concurrent use.
type Registry struct {
	reg          *collection.Registry
	batchWorkers int
}

// NewRegistry builds an in-memory registry with a threshold-scan token
// index under fn (the New construction) for every collection. The default
// collection is seeded with seed; collections created later start empty.
func NewRegistry(seed []Set, fn Similarity, cfg Config) *Registry {
	reg := collection.NewRegistry(rawSets(seed), cfg.registryConfig(func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicFunc(dict, fn)
	}))
	return &Registry{reg: reg, batchWorkers: cfg.BatchWorkers}
}

// OpenRegistry builds a durable registry rooted at dir. The default
// collection opens in dir itself — a pre-multi-tenant Open directory
// upgrades in place, byte-compatibly — and every collection under
// dir/collections/<name> is recovered through the same checkpoint + WAL
// machinery. A fresh directory seeds the default collection from seed.
func OpenRegistry(dir string, seed []Set, fn Similarity, cfg Config) (*Registry, error) {
	reg, err := collection.OpenRegistry(dir, rawSets(seed), cfg.registryConfig(func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicFunc(dict, fn)
	}))
	if err != nil {
		return nil, err
	}
	return &Registry{reg: reg, batchWorkers: cfg.BatchWorkers}, nil
}

func rawSets(seed []Set) []sets.Set {
	raw := make([]sets.Set, len(seed))
	for i, s := range seed {
		raw[i] = sets.Set{Name: s.Name, Elements: s.Elements}
	}
	return raw
}

// engineOf wraps a collection as an Engine whose Insert/Delete go through
// the collection's quota accounting.
func (r *Registry) engineOf(c *collection.Collection) *Engine {
	return &Engine{mgr: c.Manager(), col: c, batchWorkers: r.batchWorkers}
}

// Default returns the always-present default collection's engine.
func (r *Registry) Default() *Engine { return r.engineOf(r.reg.Default()) }

// Create adds a new empty collection bounded by q (zero = unlimited) and
// returns its engine. Durable registries create the collection's directory
// before returning — it recovers independently from then on.
func (r *Registry) Create(name string, q Quota) (*Engine, error) {
	c, err := r.reg.Create(name, q)
	if err != nil {
		return nil, err
	}
	return r.engineOf(c), nil
}

// Get returns the named collection's engine.
func (r *Registry) Get(name string) (*Engine, bool) {
	c, ok := r.reg.Get(name)
	if !ok {
		return nil, false
	}
	return r.engineOf(c), true
}

// Drop removes a named collection and (on durable registries) deletes its
// directory. Searches already running against it finish safely — the
// engine serves from immutable snapshots. The default collection cannot
// be dropped.
func (r *Registry) Drop(name string) error { return r.reg.Drop(name) }

// Collections returns every collection name, default first, the rest
// sorted.
func (r *Registry) Collections() []string {
	cols := r.reg.List()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name()
	}
	return names
}

// Close stops the maintenance scheduler and closes every collection
// (checkpointing durable ones). Mutations fail afterwards; searches keep
// answering from the last snapshots.
func (r *Registry) Close() error { return r.reg.Close() }

// CollectionUsage reports one collection's quota accounting.
type CollectionUsage struct {
	// Sets is the live-set count, Bytes the summed element bytes — the two
	// measures the Quota bounds.
	Sets  int
	Bytes int64
	Quota Quota
}

// Usage returns the named collection's current quota accounting.
func (r *Registry) Usage(name string) (CollectionUsage, bool) {
	c, ok := r.reg.Get(name)
	if !ok {
		return CollectionUsage{}, false
	}
	return CollectionUsage{Sets: c.Manager().Len(), Bytes: c.Bytes(), Quota: c.Quota()}, true
}
