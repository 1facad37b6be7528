package segment

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
)

// TestMemtableRowsInternedOnce: a memtable row is de-duplicated and interned
// when it is inserted and every later view is built over that row, so rows
// with duplicate elements, replacement by name and deletion from the
// memtable must all leave the same live sets and the same search results as
// an engine built from scratch on the surviving sets — before and after the
// memtable seals.
func TestMemtableRowsInternedOnce(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	opts := testOpts()
	// Nothing seals until Flush: every mutation below lands in the memtable.
	m := NewManager(all[:5], dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 1 << 20})
	o := newOracle()
	for _, s := range all[:5] {
		o.insert(s.Name, s.Elements)
	}
	doubled := func(elems []string) []string {
		return append(append([]string{elems[0]}, elems...), elems...)
	}
	check := func(label string) {
		t.Helper()
		want := sets.NewRepository(o.sets())
		live := m.LiveSets()
		if len(live) != want.Len() {
			t.Fatalf("%s: %d live sets, want %d", label, len(live), want.Len())
		}
		for i, rec := range live {
			w := want.Set(i)
			if rec.Name != w.Name || !slices.Equal(rec.Elements, w.Elements) {
				t.Fatalf("%s: live set %d = %q %v, want %q %v", label, i, rec.Name, rec.Elements, w.Name, w.Elements)
			}
			if got, ok := m.SetByName(rec.Name); !ok || !slices.Equal(got.Elements, w.Elements) {
				t.Fatalf("%s: SetByName(%q) = %v, %v; want %v", label, rec.Name, got.Elements, ok, w.Elements)
			}
		}
		for _, q := range [][]string{all[0].Elements, all[6].Elements, doubled(all[7].Elements), all[9].Elements} {
			assertEquivalent(t, label, m, o.sets(), ds.Model.Vector, opts, q)
		}
	}
	insert := func(name string, elems []string) {
		t.Helper()
		if _, err := m.Insert(name, elems); err != nil {
			t.Fatal(err)
		}
		o.insert(name, elems)
	}

	for i, s := range all[5:12] {
		elems := s.Elements
		if i%2 == 0 {
			elems = doubled(elems)
		}
		insert(s.Name, elems)
		check(fmt.Sprintf("insert %d", i))
	}
	// Replace by name: a memtable row by another memtable row, then a
	// sealed seed row by a memtable row.
	insert(all[6].Name, doubled(all[20].Elements))
	check("replace in memtable")
	insert(all[1].Name, all[21].Elements)
	check("replace a sealed row")
	// Delete from the memtable: the first row, a middle row, the last row.
	for _, name := range []string{all[5].Name, all[8].Name, all[1].Name} {
		if ok, err := m.Delete(name); !ok || err != nil {
			t.Fatalf("Delete(%q) = %v, %v", name, ok, err)
		}
		o.delete(name)
		check("delete " + name)
	}
	if _, mem, _ := m.Segments(); mem != 5 {
		t.Fatalf("%d memtable rows before the flush, want 5", mem)
	}
	m.Flush()
	check("after seal")
	insert(all[8].Name, doubled(all[8].Elements))
	check("insert after seal")
}

// mustInsert and mustDelete fail the test on any error, and on a delete that
// finds nothing.
func mustInsert(t *testing.T, m *Manager, name string, elems []string) int64 {
	t.Helper()
	h, err := m.Insert(name, elems)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustDelete(t *testing.T, m *Manager, name string) {
	t.Helper()
	if ok, err := m.Delete(name); !ok || err != nil {
		t.Fatalf("Delete(%q) = %v, %v", name, ok, err)
	}
}

// TestMemtableTombstoneAccounting: rows deleted or replaced while in the
// memtable are tombstones of the memtable — Debt.MemtableTombstones, not the
// sealed segments' Tombstones compaction answers for — and every reader of the
// collection skips them: Len, LiveSets, SetByID, SetByName, a search at the
// default k and one at another k (whose engines are rebuilt per view, over
// the same rows). A seal leaves them behind, compaction never sees them, and
// a memtable whose last live row dies is gone whole.
func TestMemtableTombstoneAccounting(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	opts := testOpts()
	m := NewManager(all[:3], dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 8, ExternalMaintenance: true})
	o := newOracle()
	for _, s := range all[:3] {
		o.insert(s.Name, s.Elements)
	}
	handles := map[string]int64{}
	for _, s := range all[3:7] {
		handles[s.Name] = mustInsert(t, m, s.Name, s.Elements)
		o.insert(s.Name, s.Elements)
	}
	mustDelete(t, m, all[4].Name) // a memtable row
	o.delete(all[4].Name)
	replaced := mustInsert(t, m, all[5].Name, all[20].Elements) // another, replaced
	o.insert(all[5].Name, all[20].Elements)
	mustDelete(t, m, all[0].Name) // a sealed row
	o.delete(all[0].Name)

	check := func(label string, want Debt) {
		t.Helper()
		got := m.MaintenanceDebt()
		got.WALBytes, got.UnpersistedSegments = 0, 0
		if got != want {
			t.Fatalf("%s: debt %+v, want %+v", label, got, want)
		}
		sealed, mem, tomb := m.Segments()
		if sealed != want.SealedSegments || mem != want.MemtableSets || tomb != want.Tombstones {
			t.Fatalf("%s: Segments() = %d, %d, %d; debt says %+v", label, sealed, mem, tomb, want)
		}
		rows := o.sets()
		if m.Len() != len(rows) || len(m.LiveSets()) != len(rows) {
			t.Fatalf("%s: Len %d, %d live sets, want %d", label, m.Len(), len(m.LiveSets()), len(rows))
		}
		for i, rec := range m.LiveSets() {
			if rec.Name != rows[i].Name || !slices.Equal(rec.Elements, rows[i].Elements) {
				t.Fatalf("%s: live set %d is %q %v, want %q %v", label, i, rec.Name, rec.Elements, rows[i].Name, rows[i].Elements)
			}
			if byID, ok := m.SetByID(rec.ID); !ok || byID.Name != rec.Name {
				t.Fatalf("%s: SetByID(%d) = %+v, %v", label, rec.ID, byID, ok)
			}
		}
		for _, q := range [][]string{all[1].Elements, all[4].Elements, all[5].Elements, all[20].Elements} {
			assertEquivalent(t, label, m, rows, ds.Model.Vector, opts, q)
			// Another k: the view rebuilds its engines, the memtable's over
			// the rows and tombstones of the same snapshot.
			kOpts := opts
			kOpts.K = 3
			got, _, err := m.Search(context.Background(), q, kOpts.K)
			if err != nil {
				t.Fatal(err)
			}
			eng, repo := scratchEngine(rows, ds.Model.Vector, kOpts)
			raw, _ := eng.Search(q)
			if len(got) != len(raw) {
				t.Fatalf("%s, k=3: %d results, %d from scratch", label, len(got), len(raw))
			}
			for i := range raw {
				if got[i].Name != repo.Set(raw[i].SetID).Name || got[i].Score != raw[i].Score {
					t.Fatalf("%s, k=3: rank %d is %q %v, want %q %v", label, i, got[i].Name, got[i].Score, repo.Set(raw[i].SetID).Name, raw[i].Score)
				}
			}
		}
	}

	check("tombstones in the memtable", Debt{SealedSegments: 1, MemtableSets: 3, MemtableTombstones: 2, Tombstones: 1})
	for _, name := range []string{all[4].Name, all[5].Name} {
		if rec, ok := m.SetByID(handles[name]); ok {
			t.Fatalf("SetByID(%d) returns the dead row of %q: %+v", handles[name], name, rec)
		}
	}
	if rec, ok := m.SetByName(all[5].Name); !ok || rec.ID != replaced || !slices.Equal(rec.Elements, all[20].Elements) {
		t.Fatalf("SetByName(%q) = %+v, %v; want the replacement %d", all[5].Name, rec, ok, replaced)
	}
	if _, ok := m.SetByName(all[4].Name); ok {
		t.Fatalf("SetByName(%q) finds a deleted set", all[4].Name)
	}

	// Compaction reclaims the sealed tombstone and leaves the memtable alone.
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compaction", Debt{SealedSegments: 1, MemtableSets: 3, MemtableTombstones: 2})

	// The seal builds its segment from the live rows only.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after the seal", Debt{SealedSegments: 2})
	if rows := m.snap.Load().segs[1].repo.Len(); rows != 3 {
		t.Fatalf("the sealed memtable has %d rows, want its 3 live ones", rows)
	}

	// A memtable left without a live row is dropped, by a delete and by a
	// replace alike.
	mustInsert(t, m, "x", all[21].Elements)
	mustInsert(t, m, "x", all[22].Elements)
	o.insert("x", all[22].Elements)
	check("one row, replaced", Debt{SealedSegments: 2, MemtableSets: 1})
	mustDelete(t, m, "x")
	o.delete("x")
	check("all rows dead", Debt{SealedSegments: 2})
	if n := len(m.snap.Load().segs); n != 2 {
		t.Fatalf("the snapshot still lists %d segments, want the 2 sealed ones", n)
	}
}

// statsCounters is a search's statistics without its wall-clock times.
func statsCounters(st core.Stats) core.Stats {
	st.RefineTime, st.PostprocTime = 0, 0
	return st
}

// TestSnapshotIsolationAcrossMemtableGrowth: a View taken while the memtable
// holds n rows keeps answering from exactly those rows and their tombstones,
// byte for byte — while the writer appends to the same arrays, tombstones
// the View's rows, seals the memtable, starts the next one and drops that one
// whole. Run with -race: one goroutine searches the View throughout.
//
// While the dictionary stands still the statistics are compared too; the
// similarity source is shared and follows the dictionary, so once later rows
// bring new tokens an old View retrieves (and discards) more, and only its
// results are held to the baseline.
func TestSnapshotIsolationAcrossMemtableGrowth(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	// One partition, one worker and no sealed segment under the View: one
	// refiner, so the filter counters are deterministic.
	opts := core.Options{K: 5, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
	const threshold = 16
	m := NewManager(nil, dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: threshold, ExternalMaintenance: true})
	for _, s := range all[:6] {
		mustInsert(t, m, s.Name, s.Elements)
	}
	mustDelete(t, m, all[2].Name)
	mustInsert(t, m, all[4].Name, all[5].Elements)

	type answer struct {
		res   []Result
		stats core.Stats
	}
	ctx := context.Background()
	queries := [][]string{all[0].Elements, all[2].Elements, all[3].Elements, all[5].Elements, all[30].Elements}
	ask := func(v *View) []answer {
		out := make([]answer, len(queries))
		for i, q := range queries {
			res, st, err := v.Search(ctx, q)
			if err != nil {
				t.Error(err)
			}
			out[i] = answer{res, statsCounters(st)}
		}
		return out
	}
	same := func(label string, got, want []answer, withStats bool) {
		t.Helper()
		for i := range want {
			if !slices.Equal(got[i].res, want[i].res) {
				t.Errorf("%s, query %d: results %+v, want %+v", label, i, got[i].res, want[i].res)
			}
			if withStats && got[i].stats != want[i].stats {
				t.Errorf("%s, query %d: stats %+v, want %+v", label, i, got[i].stats, want[i].stats)
			}
		}
	}
	views := []*View{m.AcquireView(0), m.AcquireView(3)}
	base := [][]answer{ask(views[0]), ask(views[1])}
	if len(base[0][0].res) == 0 || len(base[1][0].res) == 0 || len(base[1][0].res) > 3 {
		t.Fatalf("baseline: %d and %d results for the first query", len(base[0][0].res), len(base[1][0].res))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				same("concurrent reader", ask(views[0]), base[0], false)
			}
		}
	}()

	// 3 × SealThreshold mutations over the tokens the dictionary already
	// has. The first ones delete and replace rows of the Views while the
	// memtable still holds them; the rest push it past the seal.
	sealedBefore, _, _ := m.Segments()
	mustDelete(t, m, all[3].Name)
	for i := 1; i < 3*threshold; i++ {
		switch i % 4 {
		case 0, 2:
			mustInsert(t, m, fmt.Sprintf("copy-%d", i), all[i%6].Elements)
		case 1:
			mustInsert(t, m, all[(i/4)%6].Name, all[(i+3)%6].Elements)
		case 3:
			mustDelete(t, m, fmt.Sprintf("copy-%d", i-1))
		}
	}
	if sealedAfter, _, _ := m.Segments(); sealedAfter == sealedBefore {
		t.Fatal("the mutations sealed no memtable; the test wants one sealed under the views")
	}
	// Empty the current memtable row by row: the last delete drops it.
	if _, mem, _ := m.Segments(); mem == 0 {
		t.Fatal("no memtable left to empty")
	}
	for _, rec := range m.LiveSets() {
		if m.where[rec.Name].mem {
			mustDelete(t, m, rec.Name)
		}
	}
	if d := m.MaintenanceDebt(); d.MemtableSets != 0 || d.MemtableTombstones != 0 || m.mem != nil {
		t.Fatalf("memtable not dropped after its last live row died: %+v", d)
	}
	for i, v := range views {
		same(fmt.Sprintf("view %d after %d mutations", i, 3*threshold), ask(v), base[i], true)
	}

	// Rows with tokens new to the dictionary: the token tables move.
	for _, s := range all[10:50] {
		mustInsert(t, m, s.Name, s.Elements)
	}
	close(stop)
	wg.Wait()
	for i, v := range views {
		same(fmt.Sprintf("view %d after dictionary growth", i), ask(v), base[i], false)
	}
}

// TestReplaceChurnLeavesNoDebt: replacing one name over and over, and
// inserting and deleting one name over and over, costs a memtable row each
// time and leaves nothing behind — no chain of dead rows to seal, no
// one-row segments, nothing compaction has to come back for.
func TestReplaceChurnLeavesNoDebt(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	opts := testOpts()
	const threshold = 8
	m := NewManager(all[:6], dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: threshold, ExternalMaintenance: true})
	o := newOracle()
	for _, s := range all[:6] {
		o.insert(s.Name, s.Elements)
	}
	churn := all[0].Name // lives in the seed segment at first
	for i := 0; i < 10*threshold; i++ {
		elems := all[6+i%40].Elements
		mustInsert(t, m, churn, elems)
		o.insert(churn, elems)
	}
	if d := m.MaintenanceDebt(); d.SealedSegments != 1 || d.MemtableSets != 1 || d.MemtableTombstones != 0 || d.Tombstones != 1 {
		t.Fatalf("after %d replaces of one name: %+v; want the seed segment with its one tombstone and a one-row memtable", 10*threshold, d)
	}
	mustDelete(t, m, churn)
	o.delete(churn)
	for i := 0; i < 10*threshold; i++ {
		mustInsert(t, m, "cycle", all[6+i%40].Elements)
		mustDelete(t, m, "cycle")
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := m.MaintenanceDebt(); d != (Debt{SealedSegments: 1}) {
		t.Fatalf("after the churn and a compaction: %+v, want one sealed segment and nothing else", d)
	}
	for _, q := range [][]string{all[0].Elements, all[3].Elements, all[45].Elements} {
		assertEquivalent(t, "after churn", m, o.sets(), ds.Model.Vector, opts, q)
	}
}

// BenchmarkMemtableInsert times Manager.Insert of distinct sets at the
// default seal threshold: every other twitter set seeds the manager, the
// held-out half is inserted one set per iteration (the manager is rebuilt,
// untimed, when the half runs out). Seals are timed — they are what an
// insert costs once per SealThreshold — and compaction never runs. The two
// scales differ in dictionary size (≈ 4.2k and ≈ 15.9k tokens) and in
// nothing an insert should depend on.
func BenchmarkMemtableInsert(b *testing.B) {
	for _, scale := range []float64{0.5, 2.0} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			ds := datagen.GenerateDefault(datagen.Twitter, scale)
			var seed, held []sets.Set
			for i, s := range ds.Repo.Sets() {
				if i%2 == 0 {
					seed = append(seed, s)
				} else {
					held = append(held, s)
				}
			}
			opts := core.Options{K: 10, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
			var m *Manager
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(held) == 0 {
					b.StopTimer()
					m = NewManager(seed, dynamicBuilder(ds.Model.Vector), opts, Config{ExternalMaintenance: true})
					m.Source().(index.Syncer).Sync() // embed the seed vocabulary now, not in the first insert
					b.StartTimer()
				}
				s := held[i%len(held)]
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.VocabSize()), "tokens")
		})
	}
}

// BenchmarkSearchNonDefaultK times Manager.Search over twitter at scale 1.0
// under the benchmark harness's serving options, every hundredth set in turn
// as the query, at the manager's own k and at one less: k is an argument of the
// search, so the two should read alike in time and in bytes.
func BenchmarkSearchNonDefaultK(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 1.0)
	opts := core.Options{K: 10, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}
	m := NewManager(ds.Repo.Sets(), dynamicBuilder(ds.Model.Vector), opts, Config{})
	var queries [][]string
	for i := 0; i < ds.Repo.Len(); i += 100 {
		queries = append(queries, ds.Repo.Set(i).Elements)
	}
	ctx := context.Background()
	for _, k := range []int{opts.K, opts.K - 1} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Search(ctx, queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
