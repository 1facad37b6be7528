package segment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sets"
	"repro/internal/sim"
	"repro/internal/store"
)

// copyDir clones a data directory so a "crash" (WAL truncation, reopen)
// can be simulated without disturbing the live manager that still has the
// original files open.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableEquivalenceAcrossKinds is the acceptance test of the durable
// engine: on every dataset kind, a durable manager grown by inserts,
// deletes, replacements, seals, compactions, and checkpoints — and
// *reopened from disk* after every phase — returns byte-identical top-k
// results and scores to an engine built from scratch on the surviving
// sets.
func TestDurableEquivalenceAcrossKinds(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.01)
			all := ds.Repo.Sets()
			if len(all) < 10 {
				t.Fatalf("dataset too small: %d sets", len(all))
			}
			nSeed := len(all) * 3 / 5
			opts := testOpts()
			cfg := Config{SealThreshold: 7, MaxSegments: 2}
			dir := t.TempDir()
			m, err := Open(dir, all[:nSeed], dynamicBuilder(ds.Model.Vector), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := model.NewCollection()
			for _, s := range all[:nSeed] {
				o.Insert(s.Name, s.Elements)
			}

			queries := func() [][]string {
				var qs [][]string
				for i := 0; i < 3 && i < o.Len(); i++ {
					qs = append(qs, o.Sets()[(i*7)%o.Len()].Elements)
				}
				qs = append(qs, all[1].Elements)
				return qs
			}
			check := func(label string) {
				t.Helper()
				rows := o.Sets()
				if m.Len() != len(rows) {
					t.Fatalf("%s: live %d, oracle %d", label, m.Len(), len(rows))
				}
				for _, q := range queries() {
					assertEquivalent(t, label, m, rows, ds.Model.Vector, opts, q)
				}
			}
			// reopen closes the manager and recovers it from disk; every
			// phase must survive the round trip bit for bit.
			reopen := func(label string) {
				t.Helper()
				if err := m.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
				m, err = Open(dir, nil, dynamicBuilder(ds.Model.Vector), opts, cfg)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				check(label + " (reopened)")
			}

			check("seed")
			reopen("seed")

			for _, s := range all[nSeed:] {
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					t.Fatal(err)
				}
				maintain(m)
				o.Insert(s.Name, s.Elements)
			}
			check("after inserts")
			reopen("after inserts")

			for i := 0; i < len(all); i += 3 {
				if _, err := m.Delete(all[i].Name); err != nil {
					t.Fatal(err)
				}
				o.Delete(all[i].Name)
			}
			check("after deletes")
			reopen("after deletes")

			for i := 1; i < len(all); i += 5 {
				elems := all[(i+2)%len(all)].Elements
				if _, err := m.Insert(all[i].Name, elems); err != nil {
					t.Fatal(err)
				}
				maintain(m)
				o.Insert(all[i].Name, elems)
			}
			check("after replacements")
			reopen("after replacements")

			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			sealed, memSets, _ := m.Segments()
			if sealed != 1 || memSets != 0 {
				t.Fatalf("after full compaction: %d sealed, %d memtable", sealed, memSets)
			}
			check("after compaction")
			reopen("after compaction")

			// A graceful close leaves an empty WAL: everything is in
			// checkpointed segments.
			man, err := store.LoadManifest(store.OS, dir)
			if err != nil || man == nil {
				t.Fatalf("manifest after churn: %v, %v", man, err)
			}
			if recs, err := openScan(t, dir, man); err != nil {
				t.Fatal(err)
			} else if len(recs) != 0 {
				t.Fatalf("%d WAL records survived a close checkpoint", len(recs))
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// openScan reads the manifest's WAL read-only, as recovery's first step does.
func openScan(t *testing.T, dir string, man *store.Manifest) ([]store.WALRecord, error) {
	t.Helper()
	recs, _, _, err := store.ScanWAL(store.OS, filepath.Join(dir, man.WAL), man.Gen)
	return recs, err
}

// TestKillAtAnyWALPrefix is the crash half of the acceptance criteria: a
// durable manager checkpointed at a known operation boundary, then killed
// with its WAL truncated to *every* record prefix (and to torn mid-record
// lengths), must reopen to exactly the state of the surviving prefix —
// byte-identical results and scores to a from-scratch engine on the
// oracle's sets at that operation index.
func TestKillAtAnyWALPrefix(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	if len(all) < 24 {
		t.Fatalf("dataset too small: %d sets", len(all))
	}
	opts := testOpts()
	// A huge seal threshold keeps every post-checkpoint op in the WAL, so
	// prefixes map one-to-one to operation indexes.
	cfg := Config{SealThreshold: 1 << 20, MaxSegments: 2}
	dir := t.TempDir()
	nSeed := len(all) / 2
	m, err := Open(dir, all[:nSeed], dynamicBuilder(ds.Model.Vector), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	o := model.NewCollection()
	for _, s := range all[:nSeed] {
		o.Insert(s.Name, s.Elements)
	}

	// Mid-run checkpoint: ops before it are only in segment snapshots +
	// manifest tombstones, ops after it only in the WAL.
	ckptAt := 4
	type opFn func(i int)
	script := []opFn{}
	tail := all[nSeed:]
	for i := 0; i < 8 && i < len(tail); i++ {
		s := tail[i]
		script = append(script, func(int) { // insert held-out set
			if _, err := m.Insert(s.Name, s.Elements); err != nil {
				t.Fatal(err)
			}
			o.Insert(s.Name, s.Elements)
		})
	}
	script = append(script,
		func(int) { // delete a seed (sealed, checkpointed) row
			if _, err := m.Delete(all[0].Name); err != nil {
				t.Fatal(err)
			}
			o.Delete(all[0].Name)
		},
		func(int) { // delete a WAL-only (memtable) row
			if _, err := m.Delete(tail[0].Name); err != nil {
				t.Fatal(err)
			}
			o.Delete(tail[0].Name)
		},
		func(int) { // replace a sealed row
			if _, err := m.Insert(all[1].Name, all[3].Elements); err != nil {
				t.Fatal(err)
			}
			o.Insert(all[1].Name, all[3].Elements)
		},
		func(int) { // auto-named insert: replay must reuse the logged name
			h, err := m.Insert("", all[5].Elements)
			if err != nil {
				t.Fatal(err)
			}
			o.Insert(fmt.Sprintf("set-%d", h), all[5].Elements)
		},
		func(int) { // re-insert a deleted name
			if _, err := m.Insert(all[0].Name, all[0].Elements); err != nil {
				t.Fatal(err)
			}
			o.Insert(all[0].Name, all[0].Elements)
		},
	)

	// Run the script, remembering the oracle's sets and the WAL byte size
	// after every op (op 0 = just after the mid-run checkpoint).
	var walPath string
	walSizes := []int64{}
	oracleAt := [][]sets.Set{}
	snapshotState := func() {
		man, err := store.LoadManifest(store.OS, dir)
		if err != nil || man == nil {
			t.Fatalf("manifest: %v, %v", man, err)
		}
		walPath = man.WAL
		fi, err := os.Stat(filepath.Join(dir, man.WAL))
		if err != nil {
			t.Fatal(err)
		}
		walSizes = append(walSizes, fi.Size())
		oracleAt = append(oracleAt, o.Sets())
	}
	for i, op := range script {
		if i == ckptAt {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			walSizes = walSizes[:0]
			oracleAt = oracleAt[:0]
			snapshotState() // state 0: the checkpoint itself
		}
		op(i)
		if i >= ckptAt {
			snapshotState()
		}
	}

	query := all[2].Elements
	for j, size := range walSizes {
		// Crash with exactly j surviving records, and with a torn j+1st.
		for _, torn := range []int64{0, 3} {
			if torn > 0 && j == len(walSizes)-1 {
				continue // nothing after the last record to tear
			}
			crashed := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashed, walPath), size+torn); err != nil {
				t.Fatal(err)
			}
			rm, err := Open(crashed, nil, dynamicBuilder(ds.Model.Vector), opts, cfg)
			if err != nil {
				t.Fatalf("prefix %d (torn %d): reopen: %v", j, torn, err)
			}
			rows := oracleAt[j]
			if rm.Len() != len(rows) {
				t.Fatalf("prefix %d (torn %d): live %d, oracle %d", j, torn, rm.Len(), len(rows))
			}
			label := fmt.Sprintf("prefix %d (torn %d)", j, torn)
			assertEquivalent(t, label, rm, rows, ds.Model.Vector, opts, query)
			if len(rows) > 0 {
				assertEquivalent(t, label, rm, rows, ds.Model.Vector, opts, rows[len(rows)-1].Elements)
			}
			rm.Close()
		}
	}
}

// TestDurableLifecycleAndLayout pins down the file-level contract: fresh
// directories are checkpointed at open; a seal leaves its segment to the
// next checkpoint, which writes the snapshot and truncates the WAL; orphans
// are swept; Close makes mutations fail and a reopened manager picks up
// where the old one stopped.
func TestDurableLifecycleAndLayout(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	opts := testOpts()
	dir := t.TempDir()
	m, err := Open(dir, all[:4], dynamicBuilder(ds.Model.Vector), opts,
		Config{SealThreshold: 4, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}

	man, err := store.LoadManifest(store.OS, dir)
	if err != nil || man == nil {
		t.Fatalf("fresh open did not commit a manifest: %v, %v", man, err)
	}
	if len(man.Segments) != 1 || man.Gen != 1 {
		t.Fatalf("fresh manifest = %+v", man)
	}

	// The fourth insert seals, but nothing is written until a checkpoint:
	// the WAL keeps covering the sealed rows.
	for i := 4; i < 8; i++ {
		if _, err := m.Insert(all[i].Name, all[i].Elements); err != nil {
			t.Fatal(err)
		}
	}
	man, _ = store.LoadManifest(store.OS, dir)
	if recs, err := openScan(t, dir, man); err != nil || len(recs) != 4 {
		t.Fatalf("sealed WAL: %d records, %v", len(recs), err)
	}
	if d := m.MaintenanceDebt(); len(man.Segments) != 1 || d.SealedSegments != 2 || d.UnpersistedSegments != 1 {
		t.Fatalf("seal persisted on its own: manifest %d segments, debt %+v", len(man.Segments), d)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, _ = store.LoadManifest(store.OS, dir)
	if recs, err := openScan(t, dir, man); err != nil || len(recs) != 0 {
		t.Fatalf("checkpoint did not truncate WAL: %d records, %v", len(recs), err)
	}
	if len(man.Segments) != 2 {
		t.Fatalf("checkpoint published %d segments", len(man.Segments))
	}

	// A delete is WAL-only until the next checkpoint folds it into the
	// manifest's tombstones.
	if _, err := m.Delete(all[0].Name); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, _ = store.LoadManifest(store.OS, dir)
	tomb := 0
	for _, ms := range man.Segments {
		words, err := ms.Dead()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			for ; w != 0; w &= w - 1 {
				tomb++
			}
		}
	}
	if tomb != 1 {
		t.Fatalf("checkpoint recorded %d tombstones, want 1", tomb)
	}

	// Orphan sweep: stray engine files disappear on reopen; foreign files
	// survive.
	for _, stray := range []string{"seg-99999999.kseg", "dict-99999999.kdict", "wal-99999999.kwal", store.ManifestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert("x", []string{"y"}); err != ErrClosed {
		t.Fatalf("insert after close: %v", err)
	}
	if _, err := m.Delete("x"); err != ErrClosed {
		t.Fatalf("delete after close: %v", err)
	}

	m2, err := Open(dir, nil, dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 4, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), "99999999") || e.Name() == store.ManifestName+".tmp" {
			t.Fatalf("orphan %s survived reopen", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "NOTES.txt")); err != nil {
		t.Fatal("foreign file swept by orphan cleanup")
	}
	if m2.Len() != 7 {
		t.Fatalf("reopened live = %d, want 7", m2.Len())
	}
	// Handles continue, never reuse.
	h, err := m2.Insert("fresh", []string{"z"})
	if err != nil {
		t.Fatal(err)
	}
	if h < 8 {
		t.Fatalf("reopened handle %d reused an old one", h)
	}
}

// TestDurableStaticSourceDeletes: a durable delete-only manager (static
// similarity index) persists its tombstones and refuses WAL inserts.
func TestDurableStaticSourceDeletes(t *testing.T) {
	seed := []sets.Set{
		{Name: "a", Elements: []string{"x", "y"}},
		{Name: "b", Elements: []string{"y", "z"}},
	}
	static := func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewFuncIndex(dict.Snapshot(), sim.Exact{})
	}
	dir := t.TempDir()
	m, err := Open(dir, seed, static, testOpts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mutable() {
		t.Fatal("static source reported mutable")
	}
	if _, err := m.Insert("c", []string{"w"}); err != ErrImmutable {
		t.Fatalf("insert on static durable source: %v", err)
	}
	if ok, err := m.Delete("a"); err != nil || !ok {
		t.Fatalf("durable delete: %v, %v", ok, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, nil, static, testOpts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("reopened live = %d, want 1", m2.Len())
	}
	if _, ok := m2.SetByName("a"); ok {
		t.Fatal("deleted set resurrected by recovery")
	}
	if res, _, err := m2.Search(context.Background(), []string{"x"}, 0); err != nil {
		t.Fatal(err)
	} else {
		for _, r := range res {
			if r.Name == "a" {
				t.Fatal("deleted set returned by search after recovery")
			}
		}
	}
}
