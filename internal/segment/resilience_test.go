package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sets"
	"repro/internal/store"
)

// resilienceFixture builds a three-layer collection: rows[0:3] checkpointed
// into the first segment, rows[3:6] into the second, rows[6:9] only in the
// WAL — and keeps the manager open so tests can clone the directory and
// damage the clone (copyDir idiom; the live manager is undisturbed).
type resilienceFixture struct {
	ds   *datagen.Dataset
	all  []sets.Set
	opts core.Options
	cfg  Config
	dir  string
	m    *Manager
	man  *store.Manifest
}

func newResilienceFixture(t *testing.T) *resilienceFixture {
	t.Helper()
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	all := ds.Repo.Sets()
	if len(all) < 9 {
		t.Fatalf("dataset too small: %d sets", len(all))
	}
	f := &resilienceFixture{
		ds:   ds,
		all:  all,
		opts: testOpts(),
		cfg:  Config{SealThreshold: 100, MaxSegments: 99, SyncWAL: true},
		dir:  t.TempDir(),
	}
	m, err := Open(f.dir, nil, dynamicBuilder(ds.Model.Vector), f.opts, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.m = m
	t.Cleanup(func() { f.m.Close() })
	for i, s := range all[:9] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 5 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	man, err := store.LoadManifest(store.OS, f.dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v, %v", man, err)
	}
	if len(man.Segments) != 2 {
		t.Fatalf("fixture wants 2 checkpointed segments, manifest has %d", len(man.Segments))
	}
	f.man = man
	return f
}

// damaged clones the fixture directory and flips one byte of the named
// engine file in the clone.
func (f *resilienceFixture) damaged(t *testing.T, name string, off int) string {
	t.Helper()
	dir := copyDir(t, f.dir)
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// reopen opens a (possibly damaged) clone with a healthy filesystem.
func (f *resilienceFixture) reopen(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(dir, nil, dynamicBuilder(f.ds.Model.Vector), f.opts, f.cfg)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// check asserts byte-identical search equivalence between m and a scratch
// engine over rows, probing with each row and one never-inserted set.
func (f *resilienceFixture) check(t *testing.T, label string, m *Manager, rows []sets.Set) {
	t.Helper()
	if m.Len() != len(rows) {
		t.Fatalf("%s: live %d, want %d", label, m.Len(), len(rows))
	}
	queries := [][]string{f.all[10].Elements}
	for _, r := range rows {
		queries = append(queries, r.Elements)
	}
	for _, q := range queries {
		assertEquivalent(t, label, m, rows, f.ds.Model.Vector, f.opts, q)
	}
}

func quarantinedNames(h Health) map[string]string {
	out := make(map[string]string, len(h.Quarantined))
	for _, q := range h.Quarantined {
		out[q.File] = q.Reason
	}
	return out
}

// repairAndReopen runs the full recovery-of-the-recovery: Repair must clear
// degraded mode, a scrub must come back clean, and a fresh reopen must be
// healthy with the same rows.
func (f *resilienceFixture) repairAndReopen(t *testing.T, m *Manager, dir string, rows []sets.Set) {
	t.Helper()
	pre, err := m.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(pre.Corrupt) != 0 {
		t.Fatalf("repair's pre-scrub found live corrupt files %v — quarantine should have removed them at open", pre.Corrupt)
	}
	if m.Health().Degraded {
		t.Fatal("repair left the manager degraded")
	}
	if rep := m.Scrub(); len(rep.Corrupt) != 0 {
		t.Fatalf("scrub after repair: corrupt %v", rep.Corrupt)
	}
	m2 := f.reopen(t, dir)
	if h := m2.Health(); h.Degraded {
		t.Fatalf("reopen after repair degraded: %+v", h.Quarantined)
	}
	f.check(t, "after repair and reopen", m2, rows)
}

func TestQuarantineCorruptSegmentServesSurvivors(t *testing.T) {
	f := newResilienceFixture(t)
	victim := f.man.Segments[0].File
	dir := f.damaged(t, victim, 40)
	m := f.reopen(t, dir)

	h := m.Health()
	if !h.Degraded {
		t.Fatal("corrupt segment did not degrade the manager")
	}
	if _, ok := quarantinedNames(h)[victim]; !ok {
		t.Fatalf("victim %s not in quarantine list: %+v", victim, h.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, victim)); err != nil {
		t.Fatalf("quarantined file not preserved on disk: %v", err)
	}
	// The first segment's three rows are gone; everything else survives.
	f.check(t, "degraded reads", m, f.all[3:9])
	f.repairAndReopen(t, m, dir, f.all[3:9])
}

func TestQuarantineCorruptDictRecoversFromWAL(t *testing.T) {
	f := newResilienceFixture(t)
	dir := f.damaged(t, f.man.Dict, 20)
	m := f.reopen(t, dir)

	h := m.Health()
	if !h.Degraded {
		t.Fatal("corrupt dictionary did not degrade the manager")
	}
	// The dictionary is the decoder ring for every interned snapshot: it and
	// both segments must be quarantined; the WAL (raw strings) replays alone.
	q := quarantinedNames(h)
	for _, name := range []string{f.man.Dict, f.man.Segments[0].File, f.man.Segments[1].File} {
		if _, ok := q[name]; !ok {
			t.Fatalf("%s not quarantined after dictionary loss: %+v", name, h.Quarantined)
		}
	}
	f.check(t, "WAL-only recovery", m, f.all[6:9])
	f.repairAndReopen(t, m, dir, f.all[6:9])
}

func TestQuarantineCorruptWALHeaderKeepsCheckpoint(t *testing.T) {
	f := newResilienceFixture(t)
	dir := f.damaged(t, f.man.WAL, 2)
	m := f.reopen(t, dir)

	h := m.Health()
	if !h.Degraded {
		t.Fatal("corrupt WAL header did not degrade the manager")
	}
	if _, ok := quarantinedNames(h)[f.man.WAL]; !ok {
		t.Fatalf("WAL not quarantined: %+v", h.Quarantined)
	}
	// The checkpointed six rows stand; the three WAL-resident rows are the
	// explicit loss.
	f.check(t, "checkpoint-only recovery", m, f.all[:6])
	f.repairAndReopen(t, m, dir, f.all[:6])
}

func TestWALMidLogGapDegradesTornTailDoesNot(t *testing.T) {
	f := newResilienceFixture(t)

	// Record boundaries of the three WAL-resident inserts.
	recs, end, damaged, err := store.ScanWAL(store.OS, filepath.Join(f.dir, f.man.WAL), f.man.Gen)
	if err != nil || damaged {
		t.Fatalf("fixture WAL: err=%v damaged=%v", err, damaged)
	}
	if len(recs) != 3 {
		t.Fatalf("fixture WAL has %d records, want 3", len(recs))
	}
	raw, err := os.ReadFile(filepath.Join(f.dir, f.man.WAL))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != end {
		t.Fatalf("WAL end %d, file %d", end, len(raw))
	}
	// Records vary in length (element counts differ), so discover the real
	// frame boundaries by rescanning truncated copies: a scan of raw[:b-1]
	// ends exactly at the previous record's boundary.
	boundary := func(cut int64) int64 {
		tmp := filepath.Join(t.TempDir(), "wal-probe.kwal")
		if err := os.WriteFile(tmp, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, prev, _, err := store.ScanWAL(store.OS, tmp, f.man.Gen)
		if err != nil {
			t.Fatalf("boundary scan at %d: %v", cut, err)
		}
		return prev
	}
	b2 := boundary(end - 1) // end of record 2 / start of record 3
	b1 := boundary(b2 - 1)  // end of record 1 / start of record 2
	if !(13 < b1 && b1 < b2 && b2 < end) {
		t.Fatalf("implausible WAL boundaries 13 < %d < %d < %d", b1, b2, end)
	}

	t.Run("mid-log", func(t *testing.T) {
		// Damage inside the SECOND record: a valid frame (the third) survives
		// past the break, so recovery must prove the gap and degrade.
		dir := f.damaged(t, f.man.WAL, int(b1+(b2-b1)/2))
		m := f.reopen(t, dir)
		h := m.Health()
		if !h.Degraded {
			t.Fatal("mid-log gap recovered without degraded mode")
		}
		if _, ok := quarantinedNames(h)[f.man.WAL]; !ok {
			t.Fatalf("damaged WAL not preserved in quarantine: %+v", h.Quarantined)
		}
		f.check(t, "prefix recovery", m, f.all[:7])
		f.repairAndReopen(t, m, dir, f.all[:7])
	})

	t.Run("torn-tail", func(t *testing.T) {
		// Damage inside the LAST record: indistinguishable from a crash mid
		// append — normal truncation, no degraded mode.
		dir := f.damaged(t, f.man.WAL, int(b2+(end-b2)/2))
		m := f.reopen(t, dir)
		if h := m.Health(); h.Degraded {
			t.Fatalf("torn tail wrongly degraded the manager: %+v", h.Quarantined)
		}
		f.check(t, "torn-tail recovery", m, f.all[:8])
	})
}

func TestScrubDetectsLatentCorruptionRepairRewrites(t *testing.T) {
	f := newResilienceFixture(t)
	// Flip a bit in a checkpointed file behind the live manager's back: the
	// collection in memory is fine, the disk is not.
	victim := f.man.Segments[1].File
	path := filepath.Join(f.dir, victim)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := f.m.Scrub()
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim {
		t.Fatalf("scrub corrupt = %v, want [%s]", rep.Corrupt, victim)
	}
	if f.m.Health().Degraded {
		t.Fatal("scrub alone must not flip the degraded flag")
	}
	if _, err := f.m.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep := f.m.Scrub(); len(rep.Corrupt) != 0 {
		t.Fatalf("scrub after repair: corrupt %v", rep.Corrupt)
	}
	// The rewritten directory must reopen healthy with everything intact
	// (memory was never damaged, so repair re-persists all nine rows).
	dir := copyDir(t, f.dir)
	m2 := f.reopen(t, dir)
	if h := m2.Health(); h.Degraded {
		t.Fatalf("reopen after repair degraded: %+v", h.Quarantined)
	}
	f.check(t, "after latent-corruption repair", m2, f.all[:9])
}

// TestCheckpointFaultsKeepPreviousManifestAuthoritative drives Checkpoint
// into ENOSPC and torn-write failures at every mutating filesystem
// operation in turn: whatever the failure point, the directory must reopen
// cleanly and serve the acknowledged state byte-identically — the previous
// MANIFEST (plus WAL) stays authoritative until the new one is fully
// committed.
func TestCheckpointFaultsKeepPreviousManifestAuthoritative(t *testing.T) {
	f := newResilienceFixture(t)
	manBytes, err := os.ReadFile(filepath.Join(f.dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	gen := f.man.Gen

	// Measure the op counts: recovery first (openOps), then the checkpoint
	// itself (ckptOps), on an undamaged clone.
	countDir := copyDir(t, f.dir)
	counter := store.NewFaultFS(nil)
	cfg := f.cfg
	cfg.FS = counter
	mc, err := Open(countDir, nil, dynamicBuilder(f.ds.Model.Vector), f.opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	openOps := counter.Ops()
	if err := mc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptOps := counter.Ops() - openOps
	mc.Close()
	if ckptOps < 5 {
		t.Fatalf("checkpoint performed only %d mutating ops — fixture too small to be interesting", ckptOps)
	}

	flavors := []struct {
		name  string
		fault func(i int) store.Fault
	}{
		{"enospc", func(i int) store.Fault { return store.Fault{After: openOps + i, Err: syscall.ENOSPC} }},
		// Open performs no writes, so a write-filtered fault index addresses
		// the checkpoint's i-th write directly.
		{"torn-write", func(i int) store.Fault {
			return store.Fault{Op: store.OpWrite, After: i, Err: syscall.ENOSPC, Short: true}
		}},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			for i := 0; i < ckptOps; i++ {
				dir := copyDir(t, f.dir)
				ffs := store.NewFaultFS(nil)
				ffs.Inject(fl.fault(i))
				cfg := f.cfg
				cfg.FS = ffs
				m, err := Open(dir, nil, dynamicBuilder(f.ds.Model.Vector), f.opts, cfg)
				if err != nil {
					t.Fatalf("op %d: clean recovery failed: %v", i, err)
				}
				ckErr := m.Checkpoint()
				if ffs.Fired() == 0 {
					m.Close()
					continue // write-filtered index past the checkpoint's writes
				}
				if ckErr == nil && i == 0 {
					t.Fatalf("op 0: checkpoint swallowed its very first fault")
				}
				// Whatever happened, the on-disk manifest must be a fully
				// committed generation: the old one, or the new one if the
				// fault hit after the commit point.
				man, err := store.LoadManifest(store.OS, dir)
				if err != nil || man == nil {
					t.Fatalf("op %d: manifest unreadable after faulted checkpoint: %v, %v", i, man, err)
				}
				if man.Gen != gen && man.Gen != gen+1 {
					t.Fatalf("op %d: manifest gen %d, want %d or %d", i, man.Gen, gen, gen+1)
				}
				if man.Gen == gen {
					if got, _ := os.ReadFile(filepath.Join(dir, "MANIFEST")); !bytes.Equal(got, manBytes) {
						t.Fatalf("op %d: old-generation manifest bytes changed under a failed checkpoint", i)
					}
				}
				// Abandon the faulted manager (the simulated process is in an
				// arbitrary state) and recover on a healthy filesystem.
				m2 := f.reopen(t, dir)
				if h := m2.Health(); h.Degraded {
					t.Fatalf("op %d: faulted checkpoint left damage on disk: %+v", i, h.Quarantined)
				}
				f.check(t, "post-fault reopen", m2, f.all[:9])
			}
		})
	}
}
