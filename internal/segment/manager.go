// Package segment turns the build-once Koios engine into a mutable
// collection served from immutable segments (DESIGN.md §4): an LSM-style
// manager owns a shared append-only token dictionary, a small memtable of
// recently written sets, a list of sealed immutable segments (each a
// sets.Repository + core.Engine with its own CSR postings), and a tombstone
// bitset per segment and for the memtable. Writes go through one writer
// mutex; reads never take it — every mutation publishes a fresh immutable
// snapshot through an atomic pointer, and Search runs the whole
// stream/refinement/post-processing pipeline against the snapshot it
// loaded, so searches are wait-free with respect to writers and observe a
// consistent collection state.
//
// The memtable is appended to in place (core.Growing): an insert costs its
// own size, and a snapshot sees the rows that existed when it was published.
// Once it holds SealThreshold rows, dead ones included, its live rows are
// built into a CSR segment. A manager never maintains itself beyond that
// seal: Compact merges all sealed segments into one big CSR (and drops
// tombstoned rows), and whoever drives maintenance — the collection layer's
// scheduler (DESIGN.md §15) — calls it once more than MaxSegments have
// accumulated.
// Set names are the external keys: inserting an existing name replaces the
// old version (a tombstone shadows it), exactly like an LSM overwrite.
//
// A manager opened with Open is additionally durable (DESIGN.md §8): every
// Insert/Delete appends to a write-ahead log before it is applied, sealed
// segments are snapshotted to disk at checkpoints, and a versioned
// manifest committed by atomic rename names the live files — so reopening
// the directory after a crash recovers the exact collection (checkpointed
// segments + WAL replay).
package segment

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/store"
)

// ErrImmutable is returned by Insert when the manager's similarity index
// cannot follow a growing dictionary (no index.Syncer support).
var ErrImmutable = errors.New("segment: similarity index is static; engine does not support inserts")

// ErrClosed is returned by mutations on a closed manager.
var ErrClosed = errors.New("segment: manager is closed")

// A DurabilityError reports an operation that WAS applied but whose last
// durability step failed: a mutation WAL-logged whose fsync under SyncWAL
// failed, or a checkpoint whose manifest rename landed but could not be
// synced. No mutation checkpoints, so a mutation's DurabilityError is
// always the fsync. The collection includes the operation and the previous
// manifest + WAL pair still recovers it; only the extra durability the step
// would have bought is missing. Callers distinguish it with errors.As from
// errors that mean the operation did not happen.
type DurabilityError struct{ Err error }

func (e *DurabilityError) Error() string {
	return "segment: mutation applied, but durability step failed: " + e.Err.Error()
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// SourceBuilder constructs the shared similarity index over the manager's
// dictionary, after the seed collection has been interned. Sources
// implementing index.Syncer make the collection insertable; static sources
// leave it search- and delete-only.
type SourceBuilder func(dict *sets.Dictionary) index.NeighborSource

// Config tunes the segment lifecycle.
type Config struct {
	// SealThreshold is the memtable size (in sets) at which it seals into
	// an immutable segment. Default 256.
	SealThreshold int
	// MaxSegments is the number of sealed segments tolerated before
	// maintenance compacts them into one. Default 4.
	MaxSegments int
	// SyncWAL fsyncs the write-ahead log after every logged operation
	// (durable managers only). Off by default: graceful shutdown and
	// process crashes are always covered; surviving power loss of the
	// last few operations costs an fsync per write.
	SyncWAL bool
	// FS overrides the filesystem the durable layer writes through (nil
	// uses the real one). Tests inject store.FaultFS here to exercise
	// short writes, ENOSPC, fsync failures, and crash points (DESIGN.md
	// §11).
	FS store.FS
	// OnMaintenance, when set, is called after a mutation grows the
	// maintenance debt — the only way a manager asks for maintenance. Seals
	// happen inline (the memtable stays bounded); compactions and
	// checkpoints run only when someone calls Compact/Checkpoint/Flush/
	// Close, which is correctness-safe because the previous manifest + a
	// longer WAL replay is always a legal recovery point (DESIGN.md §15).
	// It MUST be non-blocking: it runs under the writer lock
	// (sched.Scheduler.Notify qualifies — an atomic wake-up mark, never a
	// lock).
	OnMaintenance func()
}

// WithDefaults fills in the documented defaults of unset fields.
func (c Config) WithDefaults() Config {
	if c.SealThreshold <= 0 {
		c.SealThreshold = 256
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 4
	}
	return c
}

// SetRecord is one live set of the collection as the manager identifies
// it: ID is the stable insertion handle (never reused), Name the external
// key.
type SetRecord struct {
	ID       int64
	Name     string
	Elements []string
}

// Result is one entry of a manager search, best first: by score
// descending, then Name ascending — the rule that also picks which of
// several tied sets fill the last places (DESIGN.md §1), so an answer does
// not depend on the segment layout or the insertion order.
type Result struct {
	// ID is the set's stable handle: its position in the seed collection,
	// or the value Insert returned.
	ID int64
	// Name is the set's external key.
	Name string
	// Score is the semantic overlap (exact when Verified).
	Score float64
	// Verified reports whether Score is exact.
	Verified bool
}

// tombstones is the writer's record of a segment's or the memtable's dead
// rows, guarded by Manager.mu. Searches never read deadMaster: they see the
// clone a snapshot carries, and successive snapshots share one clone until
// the next row dies.
type tombstones struct {
	deadMaster []uint64
	deadN      int // set bits of deadMaster
	deadPub    []uint64
}

func (t *tombstones) dead(local int) bool {
	return t.deadMaster[local>>6]&(1<<(uint(local)&63)) != 0
}

func (t *tombstones) markDead(local int) {
	t.deadMaster[local>>6] |= 1 << (uint(local) & 63)
	t.deadN++
	t.deadPub = nil
}

// published returns the bitset for the next snapshot, nil when no row is
// dead.
func (t *tombstones) published() []uint64 {
	if t.deadN == 0 {
		return nil
	}
	if t.deadPub == nil {
		t.deadPub = slices.Clone(t.deadMaster)
	}
	return t.deadPub
}

// seg is one immutable segment: a repository slice with its search engine
// and the stable handle of each local row, plus the writer's tombstones.
// file is the segment's on-disk snapshot name inside the manager's data
// directory, empty while the segment exists only in memory (non-durable
// managers, or a durable segment awaiting its first checkpoint).
type seg struct {
	repo    *sets.Repository
	handles []int64
	tombstones
	file string

	// eng is the segment's search engine. Segments built from live data
	// (seed, seal, compaction) set it eagerly; recovery-loaded segments set
	// mkEng instead and build on first use through engine(), keeping cold
	// Open O(manifest) — the engine's CSR build is the only remaining
	// O(data) step on the open path (DESIGN.md §13).
	eng     *core.Engine
	engOnce sync.Once
	mkEng   func() *core.Engine

	// mseg is the mapped snapshot backing repo, nil for segments built from
	// live data. Repair consults it: a heap-loaded segment is
	// an independent intact copy of its file and can be re-persisted over
	// disk rot, while a zero-copy segment aliases the rotted bytes and must
	// be withdrawn visibly instead (durable.go).
	mseg *store.MappedSegment
}

// engine returns the segment's engine, building it on first use for
// recovery-loaded segments. Safe for concurrent callers (sync.Once).
func (s *seg) engine() *core.Engine {
	if s.mkEng != nil {
		s.engOnce.Do(func() { s.eng = s.mkEng() })
	}
	return s.eng
}

// newSeg wraps an engine built from live data, none of its rows dead.
func newSeg(eng *core.Engine, handles []int64) *seg {
	return &seg{repo: eng.Repo(), eng: eng, handles: handles,
		tombstones: tombstones{deadMaster: make([]uint64, (eng.Repo().Len()+63)/64)}}
}

// memtable is the writer's side of the segment still being written
// (guarded by Manager.mu): rows are appended to grow and handles in place
// and never moved, so a row index is stable until the seal; a deleted or
// replaced row is tombstoned like a sealed one. A memtable always has a live
// row — the manager drops it whole when the last one dies.
type memtable struct {
	grow    *core.Growing
	handles []int64
	tombstones
	// view is what snapshots publish: grow's engine over the rows appended
	// so far with the matching prefix of handles. An append clears it;
	// tombstones do not change it (they travel beside it, in snapshot.dead).
	view *seg
}

func (mt *memtable) append(row sets.Set, handle int64) {
	if mt.grow.Len()&63 == 0 {
		mt.deadMaster = append(mt.deadMaster, 0)
		mt.deadPub = nil // too short for the next snapshot
	}
	mt.grow.Append(row)
	mt.handles = append(mt.handles, handle)
	mt.view = nil
}

// liveRows returns the number of rows not tombstoned.
func (mt *memtable) liveRows() int { return mt.grow.Len() - mt.deadN }

// snapshot is the immutable state one search runs against: the sealed
// segments (oldest first), the memtable's view (last, when there is a
// memtable), a tombstone bitset per segment, and the live-token bitset
// (tokens occurring in ≥ 1 live set — the search's effective retrieval
// vocabulary). Consecutive snapshots share every bitset the mutation between
// them left alone.
type snapshot struct {
	segs []*seg
	dead [][]uint64
	live []uint64
}

// loc addresses a live set: row local of the memtable, or of seg.
type loc struct {
	mem   bool
	seg   *seg
	local int
}

// Manager owns the segmented collection.
type Manager struct {
	dict *sets.Dictionary
	src  index.NeighborSource
	dyn  index.Syncer // nil for static sources → inserts rejected
	// probeLiveOnly mirrors index.QueryVocabBound: dead query tokens are
	// not probed on vector-type sources (a from-scratch index would not
	// cover them).
	probeLiveOnly bool
	opts          core.Options
	cfg           Config

	mu         sync.Mutex // writer lock; never held by Search
	sealed     []*seg     // oldest first
	mem        *memtable  // nil while no unsealed row is live
	where      map[string]loc
	nextHandle int64
	live       int
	// tokenRefs counts, per dictionary token ID, the live sets containing
	// the token; liveBits mirrors "count > 0" as a bitset. Both grow with
	// the dictionary and are guarded by mu; searches see the clone
	// published in the snapshot. They realize the live-vocabulary
	// semantics: a token whose last containing set is deleted drops out of
	// retrieval, as if the indexes had been rebuilt without it.
	tokenRefs []int32
	liveBits  []uint64
	liveDirty bool // a bit of liveBits flipped since the last snapshot

	// Durable state (zero-valued on in-memory managers): the data
	// directory, the open WAL of the current checkpoint generation, the
	// generation counter, the next segment snapshot file number, and the
	// name/coverage of the persisted dictionary file; closed fails further
	// mutations.
	dir       string
	fs        store.FS
	wal       *store.WAL
	gen       uint64
	nextSegID uint64
	dictFile  string
	dictN     int
	closed    bool

	// Resilience state (DESIGN.md §11): degraded reports that recovery
	// quarantined damaged files (the collection is serving survivors, not
	// necessarily everything that was ever acknowledged) until a Repair
	// re-persists a complete checkpoint. quarantined lists what was moved
	// aside and why; keep names files the orphan sweep must not delete
	// (evidence that could not be moved into quarantine/).
	degraded    bool
	quarantined []QuarantinedFile
	keep        map[string]bool

	compactMu sync.Mutex // serializes whole compactions (never held by Search)
	snap      atomic.Pointer[snapshot]
}

// NewManager builds a manager over the seed collection. Seed sets keep
// their positions as handles (handle i = seed index i, matching the
// build-once engine's set IDs); empty names default to "set-<i>". When two
// seed sets share a name the later one shadows the earlier, as a later
// insert would.
func NewManager(seed []sets.Set, build SourceBuilder, opts core.Options, cfg Config) *Manager {
	m := &Manager{
		dict:  sets.NewDictionary(),
		opts:  opts.WithDefaults(),
		cfg:   cfg.WithDefaults(),
		where: make(map[string]loc),
		fs:    cfg.FS,
	}
	if m.fs == nil {
		m.fs = store.OS
	}
	var repo *sets.Repository
	if len(seed) > 0 {
		repo = sets.NewSegment(m.dict, seed)
	}
	m.wireSource(build)
	if repo != nil {
		s := newSeg(core.NewEngine(repo, m.src, m.opts), make([]int64, repo.Len()))
		for i := range s.handles {
			s.handles[i] = int64(i)
		}
		m.registerRowsLocked(s) // advances nextHandle to len(seed)
		m.sealed = append(m.sealed, s)
	}
	m.publishLocked()
	return m
}

// wireSource builds the similarity source over the shared dictionary.
// Runs single-threaded during construction/recovery, before any search.
func (m *Manager) wireSource(build SourceBuilder) {
	m.src = build(m.dict)
	m.dyn, _ = m.src.(index.Syncer)
	_, m.probeLiveOnly = m.src.(index.QueryVocabBound)
}

// Mutable reports whether Insert is supported (the similarity index can
// follow the growing dictionary). Delete works either way.
func (m *Manager) Mutable() bool { return m.dyn != nil }

// Source returns the shared similarity index.
func (m *Manager) Source() index.NeighborSource { return m.src }

// Options returns the options the collection is searched under, defaults
// applied: the k of a search that names none, α, and what its segments are
// built with.
func (m *Manager) Options() core.Options { return m.opts }

// Len returns the number of live sets.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// LiveBytes returns the summed byte lengths of the live sets' elements,
// counted by token ID: a token's length once per live set holding it.
func (m *Manager) LiveBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	vocab := m.dict.Snapshot()
	var n int64
	for id, refs := range m.tokenRefs {
		n += int64(refs) * int64(len(vocab[id]))
	}
	return n
}

// VocabSize returns the dictionary size — the distinct tokens ever
// interned, including tokens only deleted sets used (the dictionary is
// append-only; vocabulary garbage is reclaimed never, like an LSM's key
// space).
func (m *Manager) VocabSize() int { return m.dict.Size() }

// Segments reports the current layout: sealed segment count, live memtable
// rows, and tombstoned rows of sealed segments (dead but not yet compacted;
// the memtable's own dead rows are Debt.MemtableTombstones).
func (m *Manager) Segments() (sealedSegs, memtableSets, tombstones int) {
	d := m.MaintenanceDebt()
	return d.SealedSegments, d.MemtableSets, d.Tombstones
}

// Debt quantifies the maintenance backlog a manager has accumulated — the
// work Compact/Checkpoint would perform. It is what an external scheduler
// prioritizes on and what the write-stall thresholds compare against
// (DESIGN.md §15).
type Debt struct {
	// SealedSegments is the sealed immutable segment count; compaction
	// merges them back down to one.
	SealedSegments int `json:"sealed_segments"`
	// MemtableSets counts buffered live sets not yet sealed into a segment.
	MemtableSets int `json:"memtable_sets"`
	// MemtableTombstones counts rows deleted or replaced while still in the
	// memtable. They are not compaction's to reclaim: the seal leaves them
	// out of the segment it builds, and the memtable is dropped whole when
	// its last live row dies, so they only ever accompany MemtableSets > 0.
	MemtableTombstones int `json:"memtable_tombstones"`
	// Tombstones counts deleted rows of sealed segments, whose storage
	// compaction reclaims.
	Tombstones int `json:"tombstones"`
	// WALBytes is the write-ahead-log volume since the last checkpoint —
	// exactly the replay a crash would pay. Zero on in-memory managers.
	WALBytes int64 `json:"wal_bytes"`
	// UnpersistedSegments counts sealed segments with no on-disk snapshot
	// yet; a checkpoint persists them. Zero on in-memory managers.
	UnpersistedSegments int `json:"unpersisted_segments"`
}

// String renders the debt for error messages and logs.
func (d Debt) String() string {
	return fmt.Sprintf("%d sealed (%d unpersisted), %d memtable sets (+%d dead), %d tombstones, %d WAL bytes",
		d.SealedSegments, d.UnpersistedSegments, d.MemtableSets, d.MemtableTombstones, d.Tombstones, d.WALBytes)
}

// MaintenanceDebt snapshots the manager's current maintenance backlog.
func (m *Manager) MaintenanceDebt() Debt {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := Debt{SealedSegments: len(m.sealed)}
	if m.mem != nil {
		d.MemtableSets, d.MemtableTombstones = m.mem.liveRows(), m.mem.deadN
	}
	for _, s := range m.sealed {
		d.Tombstones += s.deadN
		if m.dir != "" && s.file == "" {
			d.UnpersistedSegments++
		}
	}
	if m.wal != nil {
		d.WALBytes = m.wal.AppendedBytes()
	}
	return d
}

// notifyMaintenanceLocked nudges whoever drives maintenance (if wired) that
// debt grew.
func (m *Manager) notifyMaintenanceLocked() {
	if m.cfg.OnMaintenance != nil {
		m.cfg.OnMaintenance()
	}
}

// Insert adds a set (or replaces the live set of the same name) and
// returns its stable handle. An empty name defaults to "set-<handle>".
// The new set is searchable as soon as Insert returns. On a durable
// manager the operation is logged to the WAL before it is applied; an
// error of type *DurabilityError means the insert itself is applied and
// logged but the SyncWAL fsync failed — any other error means it was not
// applied.
func (m *Manager) Insert(name string, elements []string) (int64, error) {
	if m.dyn == nil {
		return 0, ErrImmutable
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	handle := m.nextHandle
	m.nextHandle++
	if name == "" {
		// Auto-assign "set-<handle>", stepping around any live set the
		// user explicitly gave that name — an auto-name must create, never
		// silently replace. The resolved name is what gets logged, so
		// replay never re-resolves.
		name = fmt.Sprintf("set-%d", handle)
		for i := 1; ; i++ {
			if _, taken := m.where[name]; !taken {
				break
			}
			name = fmt.Sprintf("set-%d~%d", handle, i)
		}
	}
	var walErr error
	if m.wal != nil {
		if err := m.wal.Append(store.WALRecord{Op: store.WALInsert, Handle: handle, Name: name, Elements: elements}); err != nil {
			m.nextHandle--
			return 0, err
		}
		if m.cfg.SyncWAL {
			if err := m.wal.Sync(); err != nil {
				walErr = &DurabilityError{Err: err}
			}
		}
	}
	m.applyInsertLocked(handle, name, elements)
	return handle, walErr
}

// applyInsertLocked is the insert body shared by Insert and WAL replay:
// the handle and name are already resolved (and, on durable managers,
// logged).
func (m *Manager) applyInsertLocked(handle int64, name string, elements []string) {
	if handle >= m.nextHandle {
		m.nextHandle = handle + 1
	}
	if old, ok := m.where[name]; ok {
		m.removeLocked(name, old)
	}
	// The row is de-duplicated and interned here, once, and the source
	// synced to the tokens it brought before any snapshot can show it.
	row := sets.InternSet(m.dict, name, elements)
	m.dyn.Sync()
	if m.mem == nil {
		m.mem = &memtable{grow: core.NewGrowing(m.dict, m.src, m.opts)}
	}
	m.where[name] = loc{mem: true, local: m.mem.grow.Len()}
	m.mem.append(row, handle)
	m.live++
	m.retainLocked(row.ElemIDs)
	if m.mem.grow.Len() >= m.cfg.SealThreshold {
		// Dead rows count: they take a slot of every search until the seal
		// drops them.
		m.sealLocked()
	}
	m.publishLocked()
	m.notifyMaintenanceLocked()
}

// Delete tombstones the live set with the given name, reporting whether it
// existed. The set disappears from searches as soon as Delete returns; its
// storage is reclaimed by the next compaction. On a durable manager the
// delete is logged to the WAL before it is applied; a *DurabilityError
// means it was applied and logged but the SyncWAL fsync failed.
func (m *Manager) Delete(name string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrClosed
	}
	l, ok := m.where[name]
	if !ok {
		return false, nil
	}
	var walErr error
	if m.wal != nil {
		if err := m.wal.Append(store.WALRecord{Op: store.WALDelete, Name: name}); err != nil {
			return false, err
		}
		if m.cfg.SyncWAL {
			if err := m.wal.Sync(); err != nil {
				walErr = &DurabilityError{Err: err}
			}
		}
	}
	m.applyDeleteLocked(name, l)
	return true, walErr
}

// applyDeleteLocked is the delete body shared by Delete and WAL replay.
func (m *Manager) applyDeleteLocked(name string, l loc) {
	m.removeLocked(name, l)
	delete(m.where, name)
	m.publishLocked()
	m.notifyMaintenanceLocked()
}

// removeLocked tombstones the set at l. The caller owns m.where bookkeeping
// for name.
func (m *Manager) removeLocked(name string, l loc) {
	if l.mem {
		m.releaseLocked(m.mem.grow.Row(l.local).ElemIDs)
		m.mem.markDead(l.local)
		if m.mem.liveRows() == 0 {
			// Nothing left to seal or to search: the next insert starts a
			// new memtable, and snapshots still holding this one keep it.
			m.mem = nil
		}
	} else {
		l.seg.markDead(l.local)
		m.releaseLocked(l.seg.repo.Set(l.local).ElemIDs)
	}
	m.live--
}

// retainLocked bumps the live refcount of each token, growing the tables
// to the current dictionary size as needed.
func (m *Manager) retainLocked(ids []int32) {
	for _, id := range ids {
		if int(id) >= len(m.tokenRefs) {
			n := m.dict.Size()
			m.tokenRefs = append(m.tokenRefs, make([]int32, n-len(m.tokenRefs))...)
			m.liveBits = append(m.liveBits, make([]uint64, (n+63)/64-len(m.liveBits))...)
		}
		m.tokenRefs[id]++
		if m.tokenRefs[id] == 1 {
			m.liveBits[id>>6] |= 1 << (uint(id) & 63)
			m.liveDirty = true
		}
	}
}

// releaseLocked drops the live refcount of each token, clearing its live
// bit when the last containing set goes away.
func (m *Manager) releaseLocked(ids []int32) {
	for _, id := range ids {
		m.tokenRefs[id]--
		if m.tokenRefs[id] == 0 {
			m.liveBits[id>>6] &^= 1 << (uint(id) & 63)
			m.liveDirty = true
		}
	}
}

// sealLocked unconditionally freezes the memtable: its live rows become an
// ordinary CSR segment — the one engine build a memtable ever costs — and
// its tombstoned rows go no further.
func (m *Manager) sealLocked() {
	mt := m.mem
	rows := make([]sets.Set, 0, mt.liveRows())
	handles := make([]int64, 0, mt.liveRows())
	for i := 0; i < mt.grow.Len(); i++ {
		if mt.dead(i) {
			continue
		}
		row := mt.grow.Row(i)
		row.ID = len(rows)
		rows = append(rows, row)
		handles = append(handles, mt.handles[i])
	}
	repo := sets.SegmentOver(m.dict, rows)
	sealOpts := m.opts
	sealOpts.Partitions = 1 // a memtable's worth of rows; compaction repartitions
	s := newSeg(core.NewEngine(repo, m.src, sealOpts), handles)
	for i, row := range rows {
		m.where[row.Name] = loc{seg: s, local: i}
	}
	m.sealed = append(m.sealed, s)
	m.mem = nil
}

// publishLocked installs a fresh immutable snapshot, so in-flight searches
// keep the exact state they loaded. It costs the segment list plus whatever
// the mutation changed: a tombstone bitset is cloned once after a row of its
// segment died, the live-token bitset once after a token's live bit flipped,
// and the memtable's view is rebuilt (a few hundred bytes and one int32 per
// row, core.Growing) once after an append.
func (m *Manager) publishLocked() {
	sp := &snapshot{
		segs: make([]*seg, 0, len(m.sealed)+1),
		dead: make([][]uint64, 0, len(m.sealed)+1),
	}
	for _, s := range m.sealed {
		sp.segs = append(sp.segs, s)
		sp.dead = append(sp.dead, s.published())
	}
	if mt := m.mem; mt != nil {
		if mt.view == nil {
			eng := mt.grow.Engine()
			mt.view = &seg{repo: eng.Repo(), eng: eng, handles: mt.handles}
		}
		sp.segs = append(sp.segs, mt.view)
		sp.dead = append(sp.dead, mt.published())
	}
	if prev := m.snap.Load(); prev != nil && !m.liveDirty {
		sp.live = prev.live
	} else {
		sp.live = slices.Clone(m.liveBits)
		m.liveDirty = false
	}
	m.snap.Store(sp)
}

// Compact merges every sealed segment into one, dropping tombstoned rows
// and preserving insertion order. Safe to call concurrently with searches
// and mutations: the expensive CSR/engine build runs outside the writer
// lock against immutable inputs, and the install step re-validates each
// captured row — rows deleted or replaced mid-build enter the merged
// segment already tombstoned, so no write is lost. Whole compactions are
// serialized by compactMu. On durable managers a successful install is
// followed by a checkpoint persisting the merged segment; a checkpoint
// failure leaves the previous manifest + WAL authoritative (still a
// correct recovery point) and is returned. A closed manager returns
// ErrClosed, also when Close lands while the merge is being built: the
// layout Close checkpointed stays.
func (m *Manager) Compact() error {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	srcs, plan, rows := m.captureLocked()
	m.mu.Unlock()
	if srcs == nil {
		return nil
	}
	merged := m.buildMerged(plan, rows)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.installLocked(srcs, plan, merged)
	return m.checkpointLocked()
}

// captureLocked snapshots the sealed segments and their live rows: plan[i]
// is where merged row i lives now (the install step re-validates it) and
// rows[i] its copy, token IDs copied into one fresh array so that the merge
// aliases no mapping it outlives; no string is resolved and nothing is
// interned again. Nil srcs means there is nothing to merge or reclaim.
func (m *Manager) captureLocked() (srcs []*seg, plan []loc, rows []sets.Set) {
	srcs = slices.Clone(m.sealed)
	if len(srcs) == 0 || (len(srcs) == 1 && srcs[0].deadN == 0) {
		return nil, nil, nil
	}
	var ids []int32
	for _, s := range srcs {
		for local := 0; local < s.repo.Len(); local++ {
			if s.dead(local) {
				continue
			}
			row := s.repo.Set(local)
			plan = append(plan, loc{seg: s, local: local})
			rows = append(rows, sets.Set{ID: len(rows), Name: row.Name, ElemIDs: row.ElemIDs})
			ids = append(ids, row.ElemIDs...)
		}
	}
	for i := range rows {
		n := len(rows[i].ElemIDs)
		rows[i].ElemIDs, ids = ids[:n:n], ids[n:]
	}
	return srcs, plan, rows
}

// buildMerged builds the merged segment over the captured rows — the slow
// part. The inputs are immutable, so no lock is needed. Returns nil when
// every captured row was already dead.
func (m *Manager) buildMerged(plan []loc, rows []sets.Set) *seg {
	if len(rows) == 0 {
		return nil
	}
	merged := newSeg(core.NewEngine(sets.SegmentOver(m.dict, rows), m.src, m.opts), make([]int64, len(plan)))
	for i, src := range plan {
		merged.handles[i] = src.seg.handles[src.local]
	}
	return merged
}

// installLocked swaps the captured segments for the merged one. Seals that
// happened during the build only append to m.sealed, so srcs must still be
// its prefix; when it is not (a concurrent compaction won the race), the
// merge is abandoned — nothing was mutated yet, so dropping it is safe.
func (m *Manager) installLocked(srcs []*seg, plan []loc, merged *seg) {
	if len(m.sealed) < len(srcs) {
		return
	}
	for i, s := range srcs {
		if m.sealed[i] != s {
			return
		}
	}
	for i, src := range plan {
		name := merged.repo.Set(i).Name
		if l, ok := m.where[name]; ok && l == src {
			m.where[name] = loc{seg: merged, local: i}
		} else {
			// Deleted or replaced while merging: born tombstoned.
			merged.markDead(i)
		}
	}
	rest := m.sealed[len(srcs):]
	next := make([]*seg, 0, 1+len(rest))
	if merged != nil {
		next = append(next, merged)
	}
	m.sealed = append(next, rest...)
	m.publishLocked()
}

// Flush seals the current memtable (if any) into a segment regardless of
// size — deterministic layouts for tests, and a forced checkpoint boundary
// on durable managers (always, even when the memtable is empty: pending
// tombstones and unpersisted segments still reach the manifest).
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.mem != nil {
		m.sealLocked()
		m.publishLocked()
	}
	return m.checkpointLocked()
}

// Checkpoint forces a durability checkpoint: the memtable is sealed, every
// unpersisted sealed segment is snapshotted to disk, the manifest commits
// atomically, and the WAL restarts empty. A no-op (nil) on in-memory
// managers.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return m.checkpointLocked()
}

// Close checkpoints (durable managers) and closes the WAL. Further
// mutations fail with ErrClosed; searches keep answering from the last
// published snapshot.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	err := m.checkpointLocked()
	m.closed = true
	if m.wal != nil {
		if cerr := m.wal.Close(); err == nil {
			err = cerr
		}
		m.wal = nil
	}
	return err
}

// View is a consistent, immutable read handle on the collection: every
// search through one View observes the exact same segment/tombstone state,
// no matter how many mutations commit in the meantime. Acquiring a View is
// an atomic snapshot load and costs the same at every k: the View searches
// the snapshot's own engines and k travels with the search. It holds no
// locks and pins no writer resources, so a View may be kept for the duration
// of a batch and discarded by letting it go out of scope.
type View struct {
	segs  []*seg
	group *core.Group
}

// AcquireView captures the current collection snapshot for one or more
// searches at result size k (k ≤ 0 uses the manager's default).
func (m *Manager) AcquireView(k int) *View {
	sp := m.snap.Load()
	opts := m.opts
	if k > 0 {
		opts.K = k
	}
	engines := make([]*core.Engine, len(sp.segs))
	for i, s := range sp.segs {
		engines[i] = s.engine()
	}
	return &View{
		segs:  sp.segs,
		group: &core.Group{Engines: engines, Opts: opts, Dead: sp.dead, LiveTokens: sp.live, ProbeLiveOnly: m.probeLiveOnly},
	}
}

// Search runs one top-k search against the View's snapshot. Safe for
// concurrent use: the View is immutable.
func (v *View) Search(ctx context.Context, query []string) ([]Result, core.Stats, error) {
	gres, stats, err := v.group.SearchContext(ctx, query)
	if err != nil {
		return nil, stats, err
	}
	return v.resolve(gres), stats, nil
}

// resolve maps group results (segment, local) back to stable handles/names.
func (v *View) resolve(gres []core.GroupResult) []Result {
	out := make([]Result, len(gres))
	for i, r := range gres {
		s := v.segs[r.Seg]
		out[i] = Result{
			ID:       s.handles[r.Local],
			Name:     s.repo.Set(r.Local).Name,
			Score:    r.Score,
			Verified: r.Verified,
		}
	}
	return out
}

// Search runs the top-k semantic overlap search against the current
// snapshot; k ≤ 0 uses the manager's default. Search never blocks on writers
// and holds no locks: mutations committed after the snapshot load are simply
// not observed.
func (m *Manager) Search(ctx context.Context, query []string, k int) ([]Result, core.Stats, error) {
	return m.AcquireView(k).Search(ctx, query)
}

// SearchBatch answers a slice of queries against one consistent snapshot,
// returning per-query results and statistics in input order. Every query
// sees the same collection state — mutations committed mid-batch are not
// observed by any of them — and each query's results are byte-identical to
// a Search against that state (queries are independent and deterministic
// per snapshot, so execution order cannot change them). Up to workers
// queries run concurrently, one at a time when workers ≤ 1. On cancellation
// the batch returns ctx's error.
func (m *Manager) SearchBatch(ctx context.Context, queries [][]string, k, workers int) ([][]Result, []core.Stats, error) {
	v := m.AcquireView(k)
	workers = max(1, min(workers, len(queries)))
	out := make([][]Result, len(queries))
	stats := make([]core.Stats, len(queries))
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		batchErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, st, err := v.Search(bctx, queries[i])
				stats[i] = st
				if err != nil {
					errOnce.Do(func() { batchErr = err; cancel() })
					return
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	if batchErr != nil {
		return nil, stats, batchErr
	}
	return out, stats, nil
}

// record returns row local of the segment as a SetRecord, its elements
// resolved through the dictionary.
func (s *seg) record(local int) SetRecord {
	return SetRecord{ID: s.handles[local], Name: s.repo.Set(local).Name, Elements: s.repo.Elements(local)}
}

// LiveSets returns a snapshot of all live sets in insertion order.
func (m *Manager) LiveSets() []SetRecord {
	sp := m.snap.Load()
	var out []SetRecord
	for si, s := range sp.segs {
		dead := sp.dead[si]
		for local := 0; local < s.repo.Len(); local++ {
			if dead == nil || dead[local>>6]&(1<<(uint(local)&63)) == 0 {
				out = append(out, s.record(local))
			}
		}
	}
	return out
}

// SetByID returns the live set with the given handle.
func (m *Manager) SetByID(id int64) (SetRecord, bool) {
	sp := m.snap.Load()
	for si, s := range sp.segs {
		local, dead := slices.Index(s.handles, id), sp.dead[si]
		if local >= 0 && (dead == nil || dead[local>>6]&(1<<(uint(local)&63)) == 0) {
			return s.record(local), true
		}
	}
	return SetRecord{}, false
}

// SetByName returns the live set with the given name.
func (m *Manager) SetByName(name string) (SetRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, local, ok := m.rowLocked(name)
	if !ok {
		return SetRecord{}, false
	}
	return s.record(local), true
}

// SetBytes returns the summed byte lengths of the live set name's
// elements, counted by token ID as LiveBytes counts them, and whether the
// set exists; it resolves no string.
func (m *Manager) SetBytes(name string) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, local, ok := m.rowLocked(name)
	if !ok {
		return 0, false
	}
	vocab := m.dict.Snapshot()
	var n int64
	for _, id := range s.repo.Set(local).ElemIDs {
		n += int64(len(vocab[id]))
	}
	return n, true
}

// rowLocked returns the segment and local ID of the live set name. m.mu is
// held.
func (m *Manager) rowLocked(name string) (*seg, int, bool) {
	l, ok := m.where[name]
	if !ok {
		return nil, 0, false
	}
	if l.mem {
		return m.mem.view, l.local, true // publishLocked rebuilds the view after every append
	}
	return l.seg, l.local, true
}
