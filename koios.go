package koios

import (
	"context"
	"runtime"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/sim"
)

// ErrImmutable is returned by Insert on engines whose similarity index
// cannot follow a growing vocabulary (the approximate NewWithSource
// indexes are built once over the construction-time vocabulary). Engines
// from New and NewWithVectors are always mutable.
var ErrImmutable = segment.ErrImmutable

// ErrClosed is returned by mutations on a closed engine.
var ErrClosed = segment.ErrClosed

// DurabilityError reports a mutation on a durable engine that WAS applied
// and WAL-logged but whose WAL fsync under SyncWAL failed (no mutation
// triggers a checkpoint). Distinguish it with errors.As; any other
// Insert/Delete error means the mutation did not happen.
type DurabilityError = segment.DurabilityError

// Set is a named set of string elements. Elements are de-duplicated on
// engine construction.
type Set struct {
	Name     string
	Elements []string
}

// Similarity scores two set elements. Implementations must be symmetric,
// return 1 for identical strings, and values in [0,1] otherwise (Def. 1 of
// the paper).
type Similarity interface {
	Sim(a, b string) float64
	Name() string
}

// VectorFunc maps a token to its embedding vector; ok=false marks the token
// as out of vocabulary. Identical out-of-vocabulary tokens still count as
// exact matches during search.
type VectorFunc func(token string) (vec []float32, ok bool)

// Config tunes a search engine. The zero value means k=10, α=0.8, a single
// partition and a single verification worker.
type Config struct {
	// K is the result size.
	K int
	// Alpha is the element similarity threshold α ∈ (0,1].
	Alpha float64
	// Partitions > 1 splits the repository into that many contiguous ranges
	// of sets, refined in parallel under a shared pruning threshold. Ranges
	// follow insertion order: sets inserted sorted by size load the last
	// range most (DESIGN.md §6).
	Partitions int
	// Workers bounds the concurrent verifications of one search.
	Workers int
	// ExactScores verifies every returned set so Result.Score is the exact
	// semantic overlap (searches may otherwise return proven lower bounds
	// for sets whose membership needed no matching). It is off by default,
	// as in the paper, and costs verifications: per search at k=10, α=0.8,
	// exact vs inexact, 25.3 vs 21.1 on generated twitter sets (vectors),
	// 13.8 vs 7.5 on the same sets under edit similarity, 13.7 vs 12.7 on
	// opendata queries of 100–400 elements and 16.9 vs 13.0 on wdc 0.25
	// (EXPERIMENTS.md, "The θlb seed solves its sets").
	ExactScores bool
	// SealThreshold is the number of inserted sets buffered in the mutable
	// memtable before it seals into an immutable segment (default 256);
	// MaxSegments bounds how many sealed segments accumulate before the
	// maintenance scheduler compacts them (default 4). They only matter once
	// Insert/Delete are used.
	SealThreshold int
	MaxSegments   int
	// SyncWAL fsyncs the write-ahead log after every Insert/Delete on
	// durable engines (Open/OpenWithVectors). Off by default: graceful
	// Close and process crashes are always covered; SyncWAL additionally
	// covers power loss at one fsync per write.
	SyncWAL bool
	// BatchWorkers bounds concurrent queries inside one SearchBatch call
	// (default 1: queries run sequentially against the shared snapshot).
	BatchWorkers int
	// Maintenance is the policy of the background scheduler that compacts
	// and checkpoints every engine — a standalone one (New/Open) is a
	// one-collection registry's — and of graceful write degradation
	// (DESIGN.md §15). The zero value is the default policy.
	Maintenance MaintenanceConfig
}

// registryConfig is the configuration every construction — standalone
// engine or registry — builds its collections with.
func (c Config) registryConfig(build segment.SourceBuilder) collection.Config {
	return collection.Config{
		Build:       build,
		Opts:        c.coreOptions(),
		SegCfg:      segment.Config{SealThreshold: c.SealThreshold, MaxSegments: c.MaxSegments, SyncWAL: c.SyncWAL},
		Maintenance: c.Maintenance,
	}
}

func (c Config) coreOptions() core.Options {
	return core.Options{
		K:           c.K,
		Alpha:       c.Alpha,
		Partitions:  c.Partitions,
		Workers:     c.Workers,
		ExactScores: c.ExactScores,
	}
}

// Result is one entry of the top-k result, best first: by score
// descending, then SetName ascending. The sets of an answer are the first k
// in that order by exact score, so which of several tied sets an answer
// holds depends on the collection alone (DESIGN.md §1).
type Result struct {
	// SetID is the set's index in the collection passed to New.
	SetID int
	// SetName is the set's Name (or "set-<id>" when it was empty).
	SetName string
	// Score is the semantic overlap SO(Q,C) when Verified, and otherwise a
	// lower bound that sufficed to prove top-k membership.
	Score float64
	// Verified reports whether Score is exact. Without exact scores
	// (Config.ExactScores) a set the search solved before its walk, to
	// raise its pruning threshold, reports its exact score, verified, even
	// where a lower bound would have proved its membership.
	Verified bool
}

// Stats exposes the engine's filter, timing and memory accounting; see the
// field documentation in the internal core package. It feeds the benchmark
// tables of EXPERIMENTS.md.
type Stats = core.Stats

// Engine answers top-k semantic overlap queries over a mutable collection
// served from immutable segments (DESIGN.md §4). Engines are safe for
// concurrent use: any number of Search calls may run while Insert, Delete,
// and background compaction mutate the collection — each search runs
// against a consistent snapshot and never blocks on writers.
type Engine struct {
	mgr *segment.Manager
	// col is the collection the engine serves: mutations route through it so
	// its quota and write-stall accounting stay consistent.
	col *collection.Collection
	// reg is set on standalone engines (New/Open), which own the
	// one-collection registry whose scheduler maintains them; engines handed
	// out by a Registry leave it nil.
	reg          *collection.Registry
	batchWorkers int
}

// New builds an engine whose token index is a threshold scan under fn —
// exact for any Similarity, at O(|vocabulary|) retrieval cost per query
// element. The engine is mutable: Insert and Delete work after
// construction.
func New(collection []Set, fn Similarity, cfg Config) *Engine {
	return newEngine(collection, cfg, func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicFunc(dict, fn)
	})
}

// NewWithVectors builds an engine over embedding vectors with an exact
// (brute-force, batched) cosine index — the stand-in for the paper's Faiss
// index that keeps results exact. The engine is mutable: vectors for
// inserted tokens are fetched from vec on demand.
func NewWithVectors(collection []Set, vec VectorFunc, cfg Config) *Engine {
	return newEngine(collection, cfg, func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, vec)
	})
}

// NewWithSource builds an engine over a custom neighbor source created with
// one of the Source constructors (SourceIVF, SourceMinHashLSH, SourceHNSW).
// Approximate sources trade exactness of the search for retrieval speed.
// These indexes are built once over the construction-time vocabulary, so
// the engine rejects Insert with ErrImmutable (Delete still works).
func NewWithSource(collection []Set, source Source, cfg Config) *Engine {
	return newEngine(collection, cfg, func(dict *sets.Dictionary) index.NeighborSource {
		return source.build(dict.Snapshot())
	})
}

func newEngine(seed []Set, cfg Config, build segment.SourceBuilder) *Engine {
	return standalone(collection.NewRegistry(rawSets(seed), cfg.registryConfig(build)), cfg)
}

// standalone makes reg's default collection an engine that owns reg. The
// scheduler's goroutine must not keep an unreachable engine's collection
// alive, so dropping the engine stops it, as dropping a mapped segment
// unmaps it (DESIGN.md §13); Close stops it deterministically.
func standalone(reg *collection.Registry, cfg Config) *Engine {
	c := reg.Default()
	e := &Engine{mgr: c.Manager(), col: c, reg: reg, batchWorkers: cfg.BatchWorkers}
	// Stop waits out an in-flight maintenance round, too long to block the
	// cleanup goroutine.
	runtime.AddCleanup(e, func(s *sched.Scheduler) { go s.Stop() }, reg.Scheduler())
	return e
}

// Open builds a durable engine rooted at dir with a threshold-scan token
// index under fn (the mutable New construction). A directory that already
// holds an engine is recovered — checkpointed segments are loaded and the
// write-ahead log replayed — and collection is ignored; a fresh directory
// is seeded from collection and checkpointed immediately. See Checkpoint,
// Flush and Close for the durability lifecycle.
func Open(dir string, collection []Set, fn Similarity, cfg Config) (*Engine, error) {
	return openEngine(dir, collection, cfg, func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicFunc(dict, fn)
	})
}

// OpenWithVectors is Open over embedding vectors with the exact cosine
// index (the mutable NewWithVectors construction). Vectors are not
// persisted: reopening needs the same vec function, and tokens it cannot
// embed stay out of vocabulary exactly as at first build.
func OpenWithVectors(dir string, collection []Set, vec VectorFunc, cfg Config) (*Engine, error) {
	return openEngine(dir, collection, cfg, func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, vec)
	})
}

func openEngine(dir string, seed []Set, cfg Config, build segment.SourceBuilder) (*Engine, error) {
	reg, err := collection.OpenRegistry(dir, rawSets(seed), cfg.registryConfig(build))
	if err != nil {
		return nil, err
	}
	return standalone(reg, cfg), nil
}

// Search returns the top-k sets by semantic overlap with query, best first,
// together with search statistics.
func (e *Engine) Search(query []string) ([]Result, Stats) {
	results, stats, _ := e.SearchContext(context.Background(), query)
	return results, stats
}

// SearchContext is Search honoring ctx: once ctx is canceled the search
// stops at the next refinement or post-processing checkpoint and returns
// ctx's error, so abandoned queries stop burning CPU.
func (e *Engine) SearchContext(ctx context.Context, query []string) ([]Result, Stats, error) {
	raw, stats, err := e.mgr.Search(ctx, query, 0)
	if err != nil {
		return nil, stats, err
	}
	return results(raw), stats, nil
}

// results converts a segment search's answer into the public Result form.
func results(raw []segment.Result) []Result {
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = Result{SetID: int(r.ID), SetName: r.Name, Score: r.Score, Verified: r.Verified}
	}
	return out
}

// SearchBatch answers a slice of queries against one consistent snapshot of
// the collection: every query observes the same state (mutations committed
// mid-batch are invisible to all of them) and returns results and scores
// byte-identical to a Search issued against that state. Per-query results
// and stats come back in input order. Config.BatchWorkers > 1 runs that
// many queries concurrently; the default is sequential. On cancellation the
// batch stops and returns ctx's error.
func (e *Engine) SearchBatch(ctx context.Context, queries [][]string) ([][]Result, []Stats, error) {
	return e.searchBatch(ctx, queries, e.batchWorkers)
}

// searchBatch is SearchBatch with up to workers queries at a time.
func (e *Engine) searchBatch(ctx context.Context, queries [][]string, workers int) ([][]Result, []Stats, error) {
	raw, stats, err := e.mgr.SearchBatch(ctx, queries, 0, workers)
	if err != nil {
		return nil, stats, err
	}
	out := make([][]Result, len(raw))
	for i, r := range raw {
		out[i] = results(r)
	}
	return out, stats, nil
}

// Insert adds a set to the collection and returns its SetID (a stable
// handle: seed sets keep their construction index, inserted sets get the
// next integer). Inserting a name that is already live replaces the old
// set. The set is searchable as soon as Insert returns; concurrent
// searches keep their snapshot. Engines built with NewWithSource return
// ErrImmutable. Every engine enforces the write-stall policy: past the
// slowdown bound of Config.Maintenance an insert may be refused with a
// maintenance_backlog *Refusal (nothing applied, retry after RetryAfter).
// Engines from a Registry also enforce their collection's quota (a
// quota_exceeded *Refusal, nothing applied).
func (e *Engine) Insert(s Set) (int, error) {
	id, err := e.col.Insert(s.Name, s.Elements)
	return int(id), err
}

// Delete removes the set with the given name from the collection,
// reporting whether it existed. The set disappears from searches as soon
// as Delete returns; its storage is reclaimed by background compaction.
// On durable engines the delete is WAL-logged before it is applied; an
// error other than *DurabilityError means it was not applied.
func (e *Engine) Delete(name string) (bool, error) {
	return e.col.Delete(name)
}

// Compact synchronously merges all sealed segments, reclaiming tombstoned
// sets. Searches proceed concurrently; mutations wait. On durable engines
// a successful merge is checkpointed.
func (e *Engine) Compact() error { return e.mgr.Compact() }

// Flush seals the memtable (buffered inserts) into an immutable segment
// regardless of the seal threshold — a deterministic segment boundary for
// tests, and a forced checkpoint on durable engines.
func (e *Engine) Flush() error { return e.mgr.Flush() }

// Checkpoint forces a durability checkpoint on engines from Open: the
// memtable seals, unpersisted segments are snapshotted, the manifest
// commits atomically, and the write-ahead log restarts empty. In-memory
// engines return nil.
func (e *Engine) Checkpoint() error { return e.mgr.Checkpoint() }

// Close checkpoints a durable engine and closes its write-ahead log; a
// standalone engine's maintenance scheduler stops first. Further mutations
// fail with ErrClosed; searches keep answering from the last snapshot.
// Closing an in-memory engine only stops mutations (and maintenance).
func (e *Engine) Close() error {
	if e.reg != nil {
		return e.reg.Close()
	}
	return e.mgr.Close()
}

// Collection returns the engine's number of live sets.
func (e *Engine) Collection() int { return e.mgr.Len() }

// Vocabulary returns the number of distinct elements ever interned across
// the collection (the token dictionary is append-only, so elements of
// deleted sets keep counting).
func (e *Engine) Vocabulary() int { return e.mgr.VocabSize() }

// Segments reports the engine's segment layout: sealed immutable segments,
// live sets buffered in the memtable, and tombstoned rows of sealed segments
// awaiting compaction.
func (e *Engine) Segments() (sealed, memtable, tombstones int) {
	return e.mgr.Segments()
}

// Health is the engine's resilience state: whether recovery had to
// quarantine damaged files (degraded mode) and which files it set aside.
type Health = segment.Health

// QuarantinedFile records one damaged file recovery moved to quarantine/.
type QuarantinedFile = segment.QuarantinedFile

// ScrubReport summarizes a checksum re-verification pass over a durable
// engine's live files.
type ScrubReport = segment.ScrubReport

// Health reports whether the engine is degraded — recovery quarantined
// corrupt files and the collection serves the survivors — and what was
// quarantined. In-memory engines are never degraded.
func (e *Engine) Health() Health { return e.mgr.Health() }

// Scrub re-verifies the checksums of every live on-disk file (dictionary,
// segment snapshots, active WAL) without modifying anything.
func (e *Engine) Scrub() ScrubReport { return e.mgr.Scrub() }

// Repair re-persists anything Scrub finds damaged from the intact
// in-memory state (fresh checkpoint, new manifest, bad copies swept) and
// clears degraded mode on success.
func (e *Engine) Repair() (ScrubReport, error) { return e.mgr.Repair() }

// Source selects a similarity index implementation for NewWithSource.
type Source struct {
	build func(vocab []string) index.NeighborSource
}

// SourceIVF is an approximate inverted-file vector index in the style of
// Faiss IVF: nlist k-means clusters, probing the nprobe nearest per query
// element. Recall < 1: the search may miss candidates the exact index finds.
func SourceIVF(vec VectorFunc, nlist, nprobe int) Source {
	return Source{build: func(vocab []string) index.NeighborSource {
		return index.NewIVF(vocab, vec, nlist, nprobe, 1)
	}}
}

// SourceMinHashLSH retrieves Jaccard-of-q-gram neighbors through MinHash
// banding LSH; candidates are verified exactly, so precision is 1 and
// recall depends on bands×rows.
func SourceMinHashLSH(q, bands, rows int) Source {
	return Source{build: func(vocab []string) index.NeighborSource {
		return index.NewMinHashLSH(vocab, q, bands, rows, 1)
	}}
}

// SourceHNSW is an approximate graph-based vector index (hierarchical
// navigable small world); efSearch widens retrieval for higher recall.
// Zero values pick reasonable defaults (M=12, efConstruction=64,
// efSearch=96).
func SourceHNSW(vec VectorFunc, m, efConstruction, efSearch int) Source {
	return Source{build: func(vocab []string) index.NeighborSource {
		return index.NewHNSW(vocab, vec, index.HNSWConfig{
			M:              m,
			EfConstruction: efConstruction,
			EfSearch:       efSearch,
			Seed:           1,
		})
	}}
}

// Exact is the equality similarity; semantic overlap under Exact is the
// vanilla set overlap.
func Exact() Similarity { return sim.Exact{} }

// JaccardQGrams compares elements by the Jaccard similarity of their
// q-gram sets (q=3 reproduces the paper's fuzzy-search comparisons).
func JaccardQGrams(q int) Similarity { return sim.JaccardQGrams{Q: q} }

// JaccardWords compares elements by the Jaccard similarity of their
// white-space-separated word sets.
func JaccardWords() Similarity { return sim.JaccardWords{} }

// EditSimilarity compares elements by normalized Levenshtein similarity.
func EditSimilarity() Similarity { return sim.EditSimilarity{} }

// CosineSimilarity adapts a VectorFunc into an element Similarity (cosine
// of the two vectors; identical tokens are 1 even when out of vocabulary).
func CosineSimilarity(vec VectorFunc) Similarity { return cosineSim{vec} }

type cosineSim struct{ vec VectorFunc }

func (c cosineSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	va, oka := c.vec(a)
	vb, okb := c.vec(b)
	if !oka || !okb {
		return 0
	}
	return sim.Cosine(va, vb)
}

func (c cosineSim) Name() string { return "cosine" }
