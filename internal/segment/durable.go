package segment

import (
	"errors"
	"fmt"
	"log"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/sets"
	"repro/internal/store"
)

// Durability (DESIGN.md §8). A durable manager keeps four kinds of files
// in its data directory:
//
//   - seg-*.kseg    — immutable snapshots of sealed segments: interned
//     rows, the dictionary horizon they were interned under, handles, and
//     the write-time tombstone bitset. CSR postings and engines are
//     rebuilt on load, exactly as compaction rebuilds them for a merge.
//   - dict-*.kdict  — the shared append-only dictionary (tokens in ID
//     order), rewritten when it grew since the last checkpoint.
//   - wal-*.kwal    — the write-ahead log of the current checkpoint
//     generation: every Insert/Delete since the last checkpoint, appended
//     before it is applied in memory.
//   - MANIFEST      — the JSON root committed by write-temp-then-rename:
//     generation, dictionary file, live segment files with their *current*
//     tombstone bitsets, active WAL name, and the next insertion handle.
//
// The crash-consistency invariant: at every instant, the on-disk manifest
// plus a full replay of the WAL it names reproduces the live collection.
// Checkpoints maintain it by sealing the memtable first (so no live row
// exists only in memory), persisting every unpersisted segment, committing
// the manifest, and only then starting a fresh WAL and deleting the old
// one — a crash anywhere in between leaves the previous manifest + WAL
// pair intact and fully replayable. WAL records carry resolved names and
// assigned handles, so replay is deterministic and idempotent against the
// checkpointed state: a replayed delete whose effect is already in the
// manifest's tombstones targets a name that is no longer live (no-op), and
// a replayed insert lands in the memtable exactly as the original did.
//
// Corruption handling (DESIGN.md §11): a snapshot or dictionary file that
// fails its checksum (or structural checks) during recovery is moved into
// quarantine/ instead of aborting Open; the manager serves the surviving
// segments with Health().Degraded set, and Scrub/Repair re-verify and
// re-persist the collection. The quarantine invariant: damaged state is
// either excluded *visibly* (degraded + quarantined file list) or fully
// recovered — never silently dropped.

// Logf reports resilience events — quarantined files, post-commit cleanup
// failures — through the standard logger by default. Tests and embedders
// may replace it.
var Logf = log.Printf

// QuarantineDirName is the subdirectory (inside a manager's data
// directory) that damaged files are moved to.
const QuarantineDirName = "quarantine"

// lastV1Build is the last commit whose segment.Open decodes v1 segment
// files (and rewrites them as v2 at its next checkpoint).
const lastV1Build = "70baba7"

// QuarantinedFile records one damaged file set aside during recovery.
type QuarantinedFile struct {
	// File is the file's name inside the data directory (now found under
	// quarantine/, unless the move itself failed — see Reason).
	File string `json:"file"`
	// Reason describes the damage that disqualified the file.
	Reason string `json:"reason"`
}

// Health is the manager's resilience state.
type Health struct {
	// Degraded reports that recovery quarantined damaged files: the
	// collection serves the survivors, which may be less than everything
	// ever acknowledged. A successful Repair clears it.
	Degraded bool `json:"degraded"`
	// Quarantined lists the files recovery set aside, oldest first.
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
}

// Health returns the manager's resilience state.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{Degraded: m.degraded, Quarantined: slices.Clone(m.quarantined)}
}

// Initialized reports whether dir holds a committed manifest — i.e. Open
// would recover an existing collection instead of seeding a new one.
func Initialized(dir string) bool {
	m, err := store.LoadManifest(store.OS, dir)
	return err == nil && m != nil
}

// Open builds a durable manager over dir. A directory with a committed
// manifest is recovered (checkpointed segments + dictionary are loaded,
// then the WAL is replayed); seed is ignored in that case — it only
// initializes a fresh directory, which is checkpointed immediately so the
// seed itself survives a crash. The source builder runs over the loaded
// dictionary, so index coverage matches a from-scratch build.
//
// Recovery is corruption-tolerant: snapshot/dictionary/WAL files that fail
// their checksums are quarantined and the manager opens degraded over the
// survivors (see Health). Only a damaged manifest — tiny, and committed by
// atomic rename — is a hard error: without the root there is nothing
// trustworthy to recover from.
func Open(dir string, seed []sets.Set, build SourceBuilder, opts core.Options, cfg Config) (*Manager, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = store.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	man, err := store.LoadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		m := NewManager(seed, build, opts, cfg)
		m.dir = dir
		m.mu.Lock()
		err := m.checkpointLocked()
		m.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("segment: initialize %s: %w", dir, err)
		}
		return m, nil
	}
	return recoverDir(dir, man, build, opts, cfg)
}

// recoverDir rebuilds a manager from a committed manifest: dictionary, then
// segment snapshots (manifest tombstones win over write-time ones), then
// WAL replay through the exact insert/delete paths live traffic uses.
// Damaged files are quarantined, not fatal — the manager comes up degraded
// over whatever survives.
func recoverDir(dir string, man *store.Manifest, build SourceBuilder, opts core.Options, cfg Config) (*Manager, error) {
	// Presize the location map to the manifest's row total: registration
	// inserts every live row, and incremental map growth is measurable on
	// the cold-start path.
	rows := 0
	for _, ms := range man.Segments {
		rows += ms.Rows
	}
	m := &Manager{
		opts:     opts.WithDefaults(),
		cfg:      cfg.WithDefaults(),
		where:    make(map[string]loc, rows),
		dir:      dir,
		fs:       cfg.FS,
		gen:      man.Gen,
		dictFile: man.Dict,
	}
	if m.fs == nil {
		m.fs = store.OS
	}

	// The dictionary is the decoder ring for every interned snapshot: if it
	// is unreadable, no segment file can be decoded either, so all of them
	// are quarantined alongside it and recovery continues from the WAL
	// alone (records carry raw strings).
	dictBroken := false
	tokens, err := store.LoadDict(m.fs, filepath.Join(dir, man.Dict))
	if err == nil {
		if m.dict, err = sets.NewDictionaryFromTokens(tokens); err == nil {
			m.dictN = len(tokens)
			// Size the live-token tables once; retainLocked would otherwise
			// grow them mid-registration with a copy.
			m.tokenRefs = make([]int32, m.dictN)
			m.liveBits = make([]uint64, (m.dictN+63)/64)
		}
	}
	if err != nil {
		m.quarantine(man.Dict, fmt.Sprintf("dictionary unreadable: %v", err))
		dictBroken = true
		m.dict = sets.NewDictionary()
		m.dictFile = "" // force a rewrite at the next checkpoint
		m.dictN = 0
	}
	m.wireSource(build)

	m.nextHandle = man.NextHandle
	for _, ms := range man.Segments {
		if dictBroken {
			m.quarantine(ms.File, "dictionary lost: interned rows are undecodable")
			continue
		}
		s, err := m.loadSegment(ms)
		if errors.Is(err, store.ErrSegmentV1) {
			// An old directory, not a damaged one: refuse it whole and leave
			// every file where it is.
			return nil, fmt.Errorf("segment: open %s: %w; commit %s is the last build that reads it — "+
				"open and close the directory with that build once and it is rewritten in the current layout",
				dir, err, lastV1Build)
		}
		if err != nil {
			m.quarantine(ms.File, err.Error())
			continue
		}
		m.sealed = append(m.sealed, s)
		var id uint64
		if n, _ := fmt.Sscanf(ms.File, "seg-%d.kseg", &id); n == 1 && id >= m.nextSegID {
			m.nextSegID = id + 1
		}
	}

	// Sweep leftovers of a checkpoint that crashed before its manifest
	// committed.
	m.removeOrphans(man)

	// The WAL is scanned read-only first so mid-log corruption (intact
	// records beyond a corrupt frame) is detected — and the evidence copied
	// to quarantine/ — before ResumeWAL truncates the tail for appending. An
	// unreadable WAL (bad header, wrong generation, missing) is quarantined
	// whole and replaced by an empty log of the same generation: the
	// checkpointed state still serves, degraded.
	walPath := filepath.Join(dir, man.WAL)
	var recs []store.WALRecord
	if r, end, damaged, err := store.ScanWAL(m.fs, walPath, man.Gen); err != nil {
		m.quarantine(man.WAL, fmt.Sprintf("WAL unreadable: %v", err))
		wal, cerr := store.CreateWAL(m.fs, walPath, man.Gen)
		if cerr != nil {
			return nil, fmt.Errorf("segment: recreate WAL after quarantine: %w", cerr)
		}
		m.wal = wal
	} else {
		if damaged {
			m.copyToQuarantine(man.WAL,
				"mid-WAL corruption: intact records beyond a corrupt frame were dropped")
		}
		// The scan above already validated and decoded every record;
		// ResumeWAL just truncates the tail and positions for appends
		// instead of re-scanning the whole log.
		wal, err := store.ResumeWAL(m.fs, walPath, end)
		if err != nil {
			return nil, err
		}
		m.wal = wal
		recs = r
	}

	// Replay through the live apply paths, which expect the writer lock.
	m.mu.Lock()
	for _, rec := range recs {
		switch rec.Op {
		case store.WALInsert:
			if m.dyn == nil {
				m.mu.Unlock()
				m.wal.Close()
				return nil, fmt.Errorf("segment: WAL %s contains inserts but the similarity index is static", man.WAL)
			}
			m.applyInsertLocked(rec.Handle, rec.Name, rec.Elements)
		case store.WALDelete:
			if l, ok := m.where[rec.Name]; ok {
				m.applyDeleteLocked(rec.Name, l)
			}
		}
	}
	m.publishLocked()
	m.mu.Unlock()
	return m, nil
}

// quarantine moves a damaged file into quarantine/ and records it; the
// manager is degraded from here on. A file that cannot be moved (or no
// longer exists) is still recorded, and protected from the orphan sweep so
// the evidence survives in place. Called before the manager is shared, or
// with m.mu held.
func (m *Manager) quarantine(name, reason string) {
	qdir := filepath.Join(m.dir, QuarantineDirName)
	if err := m.fs.MkdirAll(qdir, 0o755); err != nil {
		Logf("segment: quarantine dir: %v", err)
	}
	if err := m.fs.Rename(filepath.Join(m.dir, name), filepath.Join(qdir, name)); err != nil {
		Logf("segment: quarantine %s (%s): move failed: %v", name, reason, err)
		if m.keep == nil {
			m.keep = make(map[string]bool)
		}
		m.keep[name] = true
	} else {
		Logf("segment: quarantined %s: %s", name, reason)
	}
	m.quarantined = append(m.quarantined, QuarantinedFile{File: name, Reason: reason})
	m.degraded = true
}

// copyToQuarantine preserves a byte-for-byte copy of a file in
// quarantine/ (for damage where the original must stay in service, e.g. a
// WAL whose valid prefix is still being replayed) and records the
// degradation. Best-effort on I/O: the degraded flag is set regardless.
func (m *Manager) copyToQuarantine(name, reason string) {
	m.quarantined = append(m.quarantined, QuarantinedFile{File: name, Reason: reason})
	m.degraded = true
	raw, err := store.ReadFile(m.fs, filepath.Join(m.dir, name))
	if err != nil {
		Logf("segment: quarantine copy %s (%s): %v", name, reason, err)
		return
	}
	qdir := filepath.Join(m.dir, QuarantineDirName)
	if err := m.fs.MkdirAll(qdir, 0o755); err != nil {
		Logf("segment: quarantine dir: %v", err)
		return
	}
	f, err := m.fs.Create(filepath.Join(qdir, name))
	if err != nil {
		Logf("segment: quarantine copy %s (%s): %v", name, reason, err)
		return
	}
	if _, err := f.Write(raw); err != nil {
		Logf("segment: quarantine copy %s (%s): %v", name, reason, err)
	}
	f.Close()
	Logf("segment: quarantined a copy of %s: %s", name, reason)
}

// loadSegment builds a segment over one manifest snapshot: the file is
// mapped and served zero-copy (read into an aligned heap buffer when the FS
// cannot map), row names are materialized as heap strings (they outlive the
// mapping in map keys and compaction outputs), the CSR arrays are borrowed
// straight from the mapping, and the unmap is tied to the repository's
// unreachability — once no snapshot, view, or in-flight search can reach
// the repo, the cleanup drops the load-time reference and the mapping goes
// away (DESIGN.md §13). The engine build is deferred to first search,
// keeping Open O(manifest metadata + names) instead of O(data).
func (m *Manager) loadSegment(ms store.ManifestSegment) (*seg, error) {
	mseg, err := store.OpenMappedSegment(m.fs, filepath.Join(m.dir, ms.File))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*seg, error) {
		mseg.Release()
		return nil, err
	}
	if mseg.Rows() != ms.Rows {
		return fail(fmt.Errorf("segment: %s has %d rows, manifest says %d", ms.File, mseg.Rows(), ms.Rows))
	}
	dead, err := ms.Dead()
	if err != nil {
		return fail(err)
	}
	// Manifest tombstones are authoritative; OR in the write-time bits
	// (copied to the heap — deadMaster is writer-mutable, the mapping is
	// not).
	for i := range dead {
		if i < len(mseg.Dead) {
			dead[i] |= mseg.Dead[i]
		}
	}
	repo, err := sets.NewMappedSegment(m.dict, mseg.Names(), mseg.RowOffs, mseg.ElemIDs, mseg.VocabN)
	if err != nil {
		return fail(fmt.Errorf("segment: %s: %w", ms.File, err))
	}
	runtime.AddCleanup(repo, func(b *store.MappedSegment) { b.Release() }, mseg)
	s := &seg{
		repo:       repo,
		handles:    mseg.Handles,
		tombstones: tombstones{deadMaster: dead},
		file:       ms.File,
		mseg:       mseg,
	}
	s.mkEng = func() *core.Engine { return core.NewEngine(repo, m.src, m.opts) }
	m.registerRowsLocked(s)
	return s, nil
}

// registerRowsLocked finishes loading a recovered or seed segment: count the
// tombstones, register every live row in the location map and live-token
// refcounts, and advance the handle allocator past every live row's handle.
func (m *Manager) registerRowsLocked(s *seg) {
	for _, word := range s.deadMaster {
		s.deadN += bits.OnesCount64(word)
	}
	for local := 0; local < s.repo.Len(); local++ {
		if s.dead(local) {
			continue
		}
		row := s.repo.Set(local)
		if prev, ok := m.where[row.Name]; ok {
			// A later row shadows a live row of its name: a seed's duplicate
			// name, or two live rows a consistent checkpoint never leaves.
			prev.seg.markDead(prev.local)
			m.releaseLocked(prev.seg.repo.Set(prev.local).ElemIDs)
			m.live--
		}
		m.where[row.Name] = loc{seg: s, local: local}
		m.retainLocked(row.ElemIDs)
		m.live++
		if s.handles[local] >= m.nextHandle {
			m.nextHandle = s.handles[local] + 1
		}
	}
}

// checkpointLocked makes the current collection durable: seal the memtable
// (no live row may exist only in memory once the WAL restarts), snapshot
// every sealed segment that has no file yet, persist the dictionary if it
// grew, start the next WAL generation, commit the manifest atomically, and
// only then drop the previous generation's files. No-op on in-memory
// managers. Any failure before the manifest commit leaves the previous
// manifest + WAL authoritative — still a correct recovery point covering
// every operation.
func (m *Manager) checkpointLocked() error {
	if m.dir == "" || m.closed {
		return nil
	}
	if m.mem != nil {
		m.sealLocked()
		m.publishLocked()
	}
	for _, s := range m.sealed {
		if s.file != "" {
			continue
		}
		name := fmt.Sprintf("seg-%08d.kseg", m.nextSegID)
		if err := store.SaveSegmentV2(m.fs, filepath.Join(m.dir, name), segSnapshotOf(s)); err != nil {
			return err
		}
		s.file = name
		m.nextSegID++
	}
	dictFile := m.dictFile
	if dictFile == "" || m.dict.Size() != m.dictN {
		dictFile = fmt.Sprintf("dict-%08d.kdict", m.gen+1)
		if err := store.SaveDict(m.fs, filepath.Join(m.dir, dictFile), m.dict.Snapshot()); err != nil {
			return err
		}
	}
	walName := fmt.Sprintf("wal-%08d.kwal", m.gen+1)
	wal, err := store.CreateWAL(m.fs, filepath.Join(m.dir, walName), m.gen+1)
	if err != nil {
		return err
	}
	man := &store.Manifest{Gen: m.gen + 1, Dict: dictFile, WAL: walName, NextHandle: m.nextHandle}
	for _, s := range m.sealed {
		ms := store.ManifestSegment{File: s.file, Rows: s.repo.Len()}
		ms.SetDead(s.deadMaster)
		man.Segments = append(man.Segments, ms)
	}
	commitErr := store.CommitManifest(m.fs, m.dir, man)
	if commitErr != nil && !errors.Is(commitErr, store.ErrUnsyncedCommit) {
		wal.Close()
		m.fs.Remove(filepath.Join(m.dir, walName))
		return commitErr
	}
	if m.wal != nil {
		// Post-commit: the new manifest is already authoritative, so a
		// failed close of the superseded log costs nothing but deserves a
		// trace.
		if err := m.wal.Close(); err != nil {
			Logf("segment: close superseded WAL: %v", err)
		}
	}
	m.wal = wal
	m.gen = man.Gen
	m.dictFile = dictFile
	m.dictN = m.dict.Size()
	if commitErr != nil {
		// The rename landed, so the new manifest rules this directory and
		// the files it names must stay — but its durability across a power
		// cut is unproven, so the previous generation's files stay too (a
		// lost rename would resurrect the old manifest). The next cleanly
		// synced checkpoint removes them.
		return &DurabilityError{Err: commitErr}
	}
	m.removeOrphans(man)
	return nil
}

// segSnapshotOf captures a sealed segment for persistence. The repository
// and handles are immutable; the tombstone bitset is cloned at write time
// (later deletes reach disk through the manifest).
func segSnapshotOf(s *seg) *store.SegmentSnapshot {
	snap := &store.SegmentSnapshot{
		VocabN: s.repo.VocabSize(),
		Rows:   make([]store.SegmentRow, s.repo.Len()),
		Dead:   append([]uint64(nil), s.deadMaster...),
	}
	for i := 0; i < s.repo.Len(); i++ {
		row := s.repo.Set(i)
		snap.Rows[i] = store.SegmentRow{Handle: s.handles[i], Name: row.Name, ElemIDs: row.ElemIDs}
	}
	return snap
}

// removeOrphans deletes engine files the manifest no longer references:
// segments dropped by compaction, previous WAL/dictionary generations, and
// leftovers of checkpoints that crashed before their manifest committed.
// Files in m.keep (quarantine evidence that could not be moved) and the
// quarantine/ directory itself are never touched. Best-effort — an
// undeletable orphan costs disk, not correctness.
func (m *Manager) removeOrphans(man *store.Manifest) {
	keep := map[string]bool{store.ManifestName: true, man.Dict: true, man.WAL: true}
	for _, s := range man.Segments {
		keep[s.File] = true
	}
	for name := range m.keep {
		keep[name] = true
	}
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || keep[name] {
			continue
		}
		switch filepath.Ext(name) {
		case ".kseg", ".kdict", ".kwal":
			m.fs.Remove(filepath.Join(m.dir, name))
		default:
			if name == store.ManifestName+".tmp" {
				m.fs.Remove(filepath.Join(m.dir, name))
			}
		}
	}
}

// ScrubReport summarizes one checksum re-verification pass over the live
// engine files.
type ScrubReport struct {
	// Checked counts the files verified (dictionary, segment snapshots,
	// and the active WAL).
	Checked int `json:"checked"`
	// Corrupt names the live files that failed verification.
	Corrupt []string `json:"corrupt,omitempty"`
}

// Scrub re-verifies the checksums of every live engine file — the
// dictionary snapshot, each persisted segment, and the active WAL — and
// reports what is damaged on disk. Read-only; Repair rebuilds. In-memory
// managers report an empty pass.
func (m *Manager) Scrub() ScrubReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scrubLocked()
}

func (m *Manager) scrubLocked() ScrubReport {
	var rep ScrubReport
	if m.dir == "" {
		return rep
	}
	if m.dictFile != "" {
		rep.Checked++
		if _, err := store.LoadDict(m.fs, filepath.Join(m.dir, m.dictFile)); err != nil {
			rep.Corrupt = append(rep.Corrupt, m.dictFile)
		}
	}
	for _, s := range m.sealed {
		if s.file == "" {
			continue
		}
		rep.Checked++
		if err := store.VerifySegment(m.fs, filepath.Join(m.dir, s.file)); err != nil {
			rep.Corrupt = append(rep.Corrupt, s.file)
		}
	}
	if m.wal != nil {
		rep.Checked++
		if _, _, damaged, err := store.ScanWAL(m.fs, m.wal.Path(), m.gen); err != nil || damaged {
			rep.Corrupt = append(rep.Corrupt, filepath.Base(m.wal.Path()))
		}
	}
	return rep
}

// Repair re-verifies every live engine file and re-persists the collection
// when anything is damaged on disk. For heap-held segments (loads through
// an FS that cannot map, segments built from live data) the in-memory state is
// an independent intact copy — it was loaded before the damage or built
// after it — so the corrupt file is detached and a fresh checkpoint
// rewrites it. A *zero-copy mapped* segment offers no such copy: the
// served bytes ARE the rotted on-disk bytes, so re-persisting would
// launder the corruption into a fresh checksum. Those segments are
// withdrawn instead — dropped from serving and their file quarantined —
// which is visible loss, recorded in Health, never a silent rewrite of
// suspect data (DESIGN.md §13). A corrupt WAL needs no marking — every
// checkpoint starts a new log. On success the manager leaves degraded
// mode; quarantine/ is kept for the operator. The returned report is the
// pre-repair scrub.
func (m *Manager) Repair() (ScrubReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ScrubReport{}, ErrClosed
	}
	if m.dir == "" {
		return ScrubReport{}, nil
	}
	rep := m.scrubLocked()
	for _, name := range rep.Corrupt {
		if name == m.dictFile {
			m.dictFile = "" // force the dictionary rewrite
			continue
		}
		for _, s := range m.sealed {
			if s.file != name {
				continue
			}
			if s.mseg != nil && s.mseg.ZeroCopy() {
				m.dropSegmentLocked(s, "zero-copy mapped segment failed its scrub while live")
			} else {
				s.file = ""
			}
			break
		}
	}
	if err := m.checkpointLocked(); err != nil {
		return rep, err
	}
	m.degraded = false
	return rep, nil
}

// dropSegmentLocked withdraws a sealed segment whose backing file rotted
// while being served zero-copy: remove it from the sealed set and the
// location map, quarantine the file, and republish. The dropped segment's
// mapped ElemIDs cannot be trusted for a refcount release (rot may have
// rewritten them since load — releasing garbage IDs could panic, or clear
// live bits other segments depend on), so the live-token state is rebuilt
// from scratch over the survivors instead: exact, reads only intact
// memory, and keeps searches byte-identical to an engine built on the
// surviving sets alone.
func (m *Manager) dropSegmentLocked(s *seg, reason string) {
	idx := slices.Index(m.sealed, s)
	if idx < 0 {
		return
	}
	m.sealed = slices.Delete(m.sealed, idx, idx+1)
	for local := 0; local < s.repo.Len(); local++ {
		if s.dead(local) {
			continue
		}
		// Names are heap strings materialized at load — safe to read even
		// over a rotted mapping.
		name := s.repo.Set(local).Name
		if l, ok := m.where[name]; ok && !l.mem && l.seg == s && l.local == local {
			delete(m.where, name)
			m.live--
		}
	}
	clear(m.tokenRefs)
	clear(m.liveBits)
	m.liveDirty = true
	for _, l := range m.where {
		if l.mem {
			m.retainLocked(m.mem.grow.Row(l.local).ElemIDs)
		} else {
			m.retainLocked(l.seg.repo.Set(l.local).ElemIDs)
		}
	}
	m.quarantine(s.file, reason)
	s.file = ""
	m.publishLocked()
}

// Dir returns the manager's data directory, empty for in-memory managers.
func (m *Manager) Dir() string { return m.dir }
