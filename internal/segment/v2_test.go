package segment

import (
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/sets"
	"repro/internal/store"
)

// TestReopenServesMappedV2: a reopened directory serves its checkpointed
// segments zero-copy from mmapped v2 snapshots — without building any
// engine during Open — byte-identically to the state before the restart.
func TestReopenServesMappedV2(t *testing.T) {
	f := newResilienceFixture(t)
	for _, ms := range f.man.Segments {
		if err := store.VerifySegment(store.OS, filepath.Join(f.dir, ms.File)); err != nil {
			t.Fatalf("checkpoint wrote %s: %v", ms.File, err)
		}
	}
	m2 := f.reopen(t, copyDir(t, f.dir))
	m2.mu.Lock()
	n := len(m2.sealed)
	for _, s := range m2.sealed {
		if s.mseg == nil || !s.mseg.ZeroCopy() {
			m2.mu.Unlock()
			t.Fatalf("segment %s not served zero-copy", s.file)
		}
		if s.eng != nil {
			m2.mu.Unlock()
			t.Fatalf("segment %s built its engine during Open", s.file)
		}
	}
	m2.mu.Unlock()
	if n != 2 {
		t.Fatalf("reopened with %d sealed segments, want 2", n)
	}
	f.check(t, "mapped reopen", m2, f.all[:9])
}

// TestOpenRefusesV1ByName: a manifest entry whose file carries the v1
// segment magic is an old directory, not a damaged one — Open fails with an
// error naming the file, the layout and the last build that reads it, and
// leaves the directory byte for byte as it found it (the generic rot path
// would quarantine the file and serve the rest "degraded").
func TestOpenRefusesV1ByName(t *testing.T) {
	f := newResilienceFixture(t)
	dir := copyDir(t, f.dir)
	victim := f.man.Segments[1].File
	if err := os.WriteFile(filepath.Join(dir, victim), []byte("KSEG\x01rows of an older build"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	m, err := Open(dir, nil, dynamicBuilder(f.ds.Model.Vector), f.opts, f.cfg)
	if err == nil {
		m.Close()
		t.Fatal("Open accepted a directory holding a v1 segment file")
	}
	if !errors.Is(err, store.ErrSegmentV1) {
		t.Fatalf("Open error %q does not wrap store.ErrSegmentV1", err)
	}
	for _, want := range []string{victim, "v1 segment layout", lastV1Build} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open error %q does not name %q", err, want)
		}
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
	}
}

// dirContents reads every entry of dir (subdirectories as a nil value).
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			out[e.Name()+"/"] = nil
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestZeroCopyRotRepairWithdraws: when the backing file of a live
// zero-copy segment rots on disk, Scrub detects it and Repair withdraws
// the segment — file quarantined, rows visibly gone from Health and the
// collection — instead of re-persisting the aliased (suspect) bytes. The
// heap-loaded inverse (memory independent of disk, repair rewrites) is
// TestScrubDetectsLatentCorruptionRepairRewrites.
func TestZeroCopyRotRepairWithdraws(t *testing.T) {
	f := newResilienceFixture(t)
	victim := f.man.Segments[1].File
	m2 := f.reopen(t, copyDir(t, f.dir))
	m2.mu.Lock()
	var live *seg
	for _, s := range m2.sealed {
		if s.file == victim {
			live = s
		}
	}
	m2.mu.Unlock()
	if live == nil || live.mseg == nil || !live.mseg.ZeroCopy() {
		t.Fatalf("victim %s not live and mapped", victim)
	}
	dir := m2.Dir()
	rotFile(t, filepath.Join(dir, victim))

	rep := m2.Scrub()
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != victim {
		t.Fatalf("scrub corrupt = %v, want [%s]", rep.Corrupt, victim)
	}
	if _, err := m2.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	h := m2.Health()
	if h.Degraded {
		t.Fatal("repair did not clear the degraded flag")
	}
	found := false
	for _, q := range h.Quarantined {
		if q.File == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("withdrawn segment %s not recorded in quarantine: %+v", victim, h.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, victim)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if rep := m2.Scrub(); len(rep.Corrupt) != 0 {
		t.Fatalf("scrub after repair: corrupt %v", rep.Corrupt)
	}
	// Rows [3:6] lived only in the withdrawn segment; everything else must
	// survive byte-identically, and the repaired directory reopens clean.
	survivors := append(append([]sets.Set{}, f.all[:3]...), f.all[6:9]...)
	f.check(t, "after zero-copy withdrawal", m2, survivors)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := f.reopen(t, dir)
	if h := m3.Health(); h.Degraded {
		t.Fatalf("reopen after withdrawal degraded: %+v", h.Quarantined)
	}
	f.check(t, "reopen after withdrawal", m3, survivors)
}

// TestMappedUnmapAfterCompaction: compaction replaces mapped segments;
// once nothing references their repositories, the runtime cleanup releases
// each mapping. Searches racing the churn (run under -race in CI) must
// never observe the unmap.
func TestMappedUnmapAfterCompaction(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	all := ds.Repo.Sets()
	if len(all) < 40 {
		t.Fatalf("dataset too small: %d sets", len(all))
	}
	dir := t.TempDir()
	cfg := Config{SealThreshold: 8, MaxSegments: 2, ForegroundCompaction: true}
	m, err := Open(dir, nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all[:16] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(dir, nil, dynamicBuilder(ds.Model.Vector), testOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.mu.Lock()
	var mapped []*store.MappedSegment
	for _, s := range m.sealed {
		if s.mseg != nil {
			mapped = append(mapped, s.mseg)
		}
	}
	m.mu.Unlock()
	if len(mapped) == 0 {
		t.Fatal("reopen produced no mapped segments")
	}

	// Searchers hammer the collection while inserts churn its segments out
	// from under them and periodic GCs try to fire the cleanup mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				q := all[(w*7+i)%16].Elements
				if _, _, err := m.Search(context.Background(), q, 5); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if i%16 == 0 {
					runtime.GC()
				}
			}
		}(w)
	}
	for _, s := range all[16:40] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			cancel()
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()

	if m.Len() != 40 {
		t.Fatalf("live %d, want 40", m.Len())
	}
	// Compaction dropped every originally mapped segment; with no snapshot
	// or view pinning a repository, GC must eventually release each
	// mapping.
	deadline := time.Now().Add(10 * time.Second)
	for _, ms := range mapped {
		for !ms.Closed() {
			if time.Now().After(deadline) {
				t.Fatal("mapping not released after compaction made it unreachable")
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, _, err := m.Search(context.Background(), all[3].Elements, 5); err != nil {
		t.Fatalf("search after unmap: %v", err)
	}
}

// rotFile flips one byte near the end of the file in place (no truncation
// — the file may be mmapped by a live manager).
func rotFile(t *testing.T, path string) {
	t.Helper()
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() - 100
	var b [1]byte
	if _, err := fh.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := fh.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
