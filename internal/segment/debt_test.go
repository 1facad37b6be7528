package segment

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/store"
)

// White-box coverage for MaintenanceDebt (DESIGN.md §15): debt grows as a
// manager leaves its compactions and checkpoints to its driver, drains to
// zero after Compact+Checkpoint, and is rebuilt exactly on a
// crash-reopen (WAL bytes and sealed segments come back from the manifest
// and log, not from in-memory counters).

func TestMaintenanceDebtLifecycle(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	if len(all) < 20 {
		t.Fatalf("dataset too small: %d sets", len(all))
	}
	notified := 0
	cfg := Config{
		SealThreshold: 3,
		MaxSegments:   2,
		OnMaintenance: func() { notified++ },
	}
	dir := t.TempDir()
	m, err := Open(dir, nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if d := m.MaintenanceDebt(); d != (Debt{}) {
		t.Fatalf("fresh manager debt = %+v, want zero", d)
	}
	for _, s := range all[:10] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(all[0].Name); err != nil {
		t.Fatal(err)
	}

	d := m.MaintenanceDebt()
	// 10 inserts at threshold 3 seal three segments; none of them
	// checkpointed, and none compacted although MaxSegments is 2.
	if d.SealedSegments != 3 || d.MemtableSets != 1 {
		t.Fatalf("debt layout = %+v, want 3 sealed + 1 memtable", d)
	}
	if d.UnpersistedSegments != 3 {
		t.Fatalf("unpersisted = %d, want 3 (no checkpoint ran)", d.UnpersistedSegments)
	}
	if d.WALBytes <= 0 {
		t.Fatalf("wal_bytes = %d, want > 0 (11 logged operations)", d.WALBytes)
	}
	if d.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", d.Tombstones)
	}
	if notified < 11 {
		t.Fatalf("OnMaintenance fired %d times, want ≥ 11 (once per mutation)", notified)
	}

	// Crash-reopen (no Close, so no implicit checkpoint): the debt must be
	// rebuilt from manifest + WAL scan, matching what the writer saw.
	m2, err := Open(dir, nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2 := m2.MaintenanceDebt()
	if d2 != d {
		t.Fatalf("reopened debt = %+v, want the pre-crash %+v", d2, d)
	}

	// Compact merges the sealed segments and (being durable) checkpoints;
	// a final Checkpoint seals and persists the remaining memtable. After
	// both, every debt dimension is drained: one compacted segment on
	// disk, empty WAL, nothing buffered, nothing unpersisted.
	if err := m2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d3 := m2.MaintenanceDebt()
	want := Debt{SealedSegments: 2} // compacted merge + the sealed ex-memtable
	if d3.WALBytes != 0 || d3.UnpersistedSegments != 0 || d3.MemtableSets != 0 || d3.Tombstones != 0 {
		t.Fatalf("post-maintenance debt = %+v, want drained (%+v)", d3, want)
	}
	if d3.SealedSegments > cfg.MaxSegments {
		t.Fatalf("post-maintenance sealed = %d, want ≤ MaxSegments %d", d3.SealedSegments, cfg.MaxSegments)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen of a drained directory starts with zero actionable debt.
	m3, err := Open(dir, nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	d4 := m3.MaintenanceDebt()
	if d4.WALBytes != 0 || d4.UnpersistedSegments != 0 || d4.MemtableSets != 0 {
		t.Fatalf("clean-reopen debt = %+v, want drained", d4)
	}
}

// TestManagerDefersMaintenance pins the hook contract: a manager never
// compacts or checkpoints on its own, no matter how many segments pile up —
// its driver owns that work and calls Compact.
func TestManagerDefersMaintenance(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	cfg := Config{SealThreshold: 2, MaxSegments: 1}
	m := NewManager(nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	n := 12
	if n > len(all) {
		n = len(all)
	}
	for _, s := range all[:n] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	sealed, _, _ := m.Segments()
	if sealed != n/2 {
		t.Fatalf("sealed = %d, want %d (self-compaction must not run)", sealed, n/2)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if sealed, _, _ = m.Segments(); sealed != 1 {
		t.Fatalf("sealed after explicit Compact = %d, want 1", sealed)
	}
}

// TestCompactAfterClose: a compaction that starts after Close — the race a
// scheduled run loses against a collection drop — is refused with ErrClosed
// like Flush and Checkpoint, and neither the layout nor the directory moves.
func TestCompactAfterClose(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	dir := t.TempDir()
	m, err := Open(dir, all[:4], dynamicBuilder(ds.Model.Vector), testOpts(), Config{SealThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all[4:8] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(all[0].Name); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	before := m.MaintenanceDebt()
	man, err := store.LoadManifest(store.OS, dir)
	if err != nil || before.SealedSegments < 2 {
		t.Fatalf("closed layout: %+v, manifest err %v; want several sealed segments to merge", before, err)
	}
	if err := m.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if after := m.MaintenanceDebt(); after != before {
		t.Fatalf("Compact after Close moved the layout: %+v, was %+v", after, before)
	}
	if man2, err := store.LoadManifest(store.OS, dir); err != nil || man2.Gen != man.Gen {
		t.Fatalf("Compact after Close committed a manifest: gen %d → %d (%v)", man.Gen, man2.Gen, err)
	}
}
