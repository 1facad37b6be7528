package segment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sets"
	"repro/internal/sim"
)

func testOpts() core.Options {
	return core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true}.WithDefaults()
}

func dynamicBuilder(vec func(string) ([]float32, bool)) SourceBuilder {
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, vec)
	}
}

// scratchEngine builds a from-scratch single-segment engine over rows with
// the classic static index — the reference the segmented manager must match
// byte for byte.
func scratchEngine(rows []sets.Set, vec func(string) ([]float32, bool), opts core.Options) (*core.Engine, *sets.Repository) {
	repo := sets.NewRepository(rows)
	src := index.NewExact(repo.Vocabulary(), vec)
	return core.NewEngine(repo, src, opts), repo
}

// oracle tracks the live collection the way a user would: an ordered list
// of (name, elements), replace-on-reinsert moving the row to the end.
type oracle struct {
	order []string
	rows  map[string][]string
}

func newOracle() *oracle { return &oracle{rows: make(map[string][]string)} }

func (o *oracle) insert(name string, elems []string) {
	if _, ok := o.rows[name]; ok {
		o.delete(name)
	}
	o.order = append(o.order, name)
	o.rows[name] = elems
}

func (o *oracle) delete(name string) {
	if _, ok := o.rows[name]; !ok {
		return
	}
	delete(o.rows, name)
	for i, n := range o.order {
		if n == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

func (o *oracle) sets() []sets.Set {
	out := make([]sets.Set, len(o.order))
	for i, n := range o.order {
		out[i] = sets.Set{Name: n, Elements: o.rows[n]}
	}
	return out
}

// assertEquivalent searches both engines and requires byte-identical
// (name, score, verified) top-k lists.
func assertEquivalent(t *testing.T, label string, m *Manager, rows []sets.Set, vec func(string) ([]float32, bool), opts core.Options, query []string) {
	t.Helper()
	assertEquivalentAtK(t, label, m, rows, vec, opts, query, 0)
}

// assertEquivalentAtK is assertEquivalent for a search that names its k
// (0: the manager's own): the reference is an engine built for that k.
func assertEquivalentAtK(t *testing.T, label string, m *Manager, rows []sets.Set, vec func(string) ([]float32, bool), opts core.Options, query []string, k int) {
	t.Helper()
	got, _, err := m.Search(context.Background(), query, k)
	if err != nil {
		t.Fatalf("%s: manager search: %v", label, err)
	}
	if k > 0 {
		opts.K = k
	}
	eng, repo := scratchEngine(rows, vec, opts)
	raw, _ := eng.Search(query)
	if len(got) != len(raw) {
		t.Fatalf("%s: %d results vs %d from scratch (query %v)", label, len(got), len(raw), query)
	}
	for i := range raw {
		wantName := repo.Set(raw[i].SetID).Name
		if got[i].Name != wantName {
			t.Fatalf("%s: rank %d name %q, want %q", label, i, got[i].Name, wantName)
		}
		if rec, ok := m.SetByName(wantName); !ok || got[i].ID != rec.ID {
			t.Fatalf("%s: rank %d (%s) id %d, want the live set's handle %d", label, i, wantName, got[i].ID, rec.ID)
		}
		if got[i].Score != raw[i].Score {
			t.Fatalf("%s: rank %d (%s) score %v, want %v (diff %g)",
				label, i, wantName, got[i].Score, raw[i].Score, got[i].Score-raw[i].Score)
		}
		if got[i].Verified != raw[i].Verified {
			t.Fatalf("%s: rank %d verified %v, want %v", label, i, got[i].Verified, raw[i].Verified)
		}
	}
}

// TestEquivalenceAcrossKinds is the acceptance test of the segmented
// repository: on every dataset kind, a manager grown by inserts, deletes,
// replacements, seals, and compaction returns byte-identical top-k results
// and scores to an engine built from scratch on the surviving sets — at
// every stage of the lifecycle.
func TestEquivalenceAcrossKinds(t *testing.T) {
	for _, kind := range datagen.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			ds := datagen.GenerateDefault(kind, 0.01)
			all := ds.Repo.Sets()
			if len(all) < 10 {
				t.Fatalf("dataset too small: %d sets", len(all))
			}
			nSeed := len(all) * 3 / 5
			opts := testOpts()
			m := NewManager(all[:nSeed], dynamicBuilder(ds.Model.Vector), opts,
				Config{SealThreshold: 7, MaxSegments: 2, ForegroundCompaction: true})
			o := newOracle()
			for _, s := range all[:nSeed] {
				o.insert(s.Name, s.Elements)
			}

			queries := func() [][]string {
				var qs [][]string
				for i := 0; i < 3 && i < len(o.order); i++ {
					qs = append(qs, o.rows[o.order[(i*7)%len(o.order)]])
				}
				// A query over a deleted set's elements must behave as if
				// the engine never saw that set.
				qs = append(qs, all[1].Elements)
				return qs
			}
			check := func(label string) {
				t.Helper()
				rows := o.sets()
				if m.Len() != len(rows) {
					t.Fatalf("%s: live %d, oracle %d", label, m.Len(), len(rows))
				}
				for _, q := range queries() {
					assertEquivalent(t, label, m, rows, ds.Model.Vector, opts, q)
				}
			}

			check("seed")

			// Inserts: the held-out tail, one by one (crossing several seal
			// thresholds and compactions).
			for _, s := range all[nSeed:] {
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					t.Fatal(err)
				}
				o.insert(s.Name, s.Elements)
			}
			check("after inserts")

			// Deletes: every 3rd set, hitting seed segment, sealed
			// segments, and the memtable alike.
			for i := 0; i < len(all); i += 3 {
				m.Delete(all[i].Name)
				o.delete(all[i].Name)
			}
			check("after deletes")

			// Replacements: re-insert existing names with other elements.
			for i := 1; i < len(all); i += 5 {
				elems := all[(i+2)%len(all)].Elements
				if _, err := m.Insert(all[i].Name, elems); err != nil {
					t.Fatal(err)
				}
				o.insert(all[i].Name, elems)
			}
			check("after replacements")

			// Full flush + compaction: one big segment, same answers.
			m.Flush()
			m.Compact()
			sealed, memSets, _ := m.Segments()
			if sealed != 1 || memSets != 0 {
				t.Fatalf("after full compaction: %d sealed, %d memtable", sealed, memSets)
			}
			check("after compaction")
		})
	}
}

func TestSealAndCompactionLayout(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	m := NewManager(nil, dynamicBuilder(ds.Model.Vector), testOpts(),
		Config{SealThreshold: 4, MaxSegments: 3, ForegroundCompaction: true})
	for i, s := range all {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
		sealed, memSets, _ := m.Segments()
		if memSets >= 4 {
			t.Fatalf("memtable reached %d rows past the threshold", memSets)
		}
		if sealed > 4 {
			t.Fatalf("compaction did not keep up: %d sealed segments after %d inserts", sealed, i+1)
		}
	}
	if m.Len() != len(all) {
		t.Fatalf("live %d, want %d", m.Len(), len(all))
	}
	// Tombstones vanish after compaction.
	for i := 0; i < len(all); i += 2 {
		m.Delete(all[i].Name)
	}
	m.Flush()
	m.Compact()
	if _, _, tombstones := m.Segments(); tombstones != 0 {
		t.Fatalf("%d tombstones survived full compaction", tombstones)
	}
	if m.Len() != len(all)-(len(all)+1)/2 {
		t.Fatalf("live %d after deleting half of %d", m.Len(), len(all))
	}
}

func TestHandlesAndRecords(t *testing.T) {
	m := NewManager([]sets.Set{
		{Name: "a", Elements: []string{"x", "y"}},
		{Name: "b", Elements: []string{"y", "z"}},
	}, dynamicBuilder(func(string) ([]float32, bool) { return nil, false }), testOpts(), Config{})

	id, err := m.Insert("c", []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("first insert handle = %d, want 2", id)
	}
	if rec, ok := m.SetByID(2); !ok || rec.Name != "c" {
		t.Fatalf("SetByID(2) = %+v, %v", rec, ok)
	}
	if rec, ok := m.SetByName("a"); !ok || rec.ID != 0 {
		t.Fatalf("SetByName(a) = %+v, %v", rec, ok)
	}

	// Replace: new handle, old handle gone, live count flat.
	id2, err := m.Insert("a", []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 3 {
		t.Fatalf("replacement handle = %d, want 3", id2)
	}
	if _, ok := m.SetByID(0); ok {
		t.Fatal("replaced set still reachable by old handle")
	}
	if m.Len() != 3 {
		t.Fatalf("live = %d, want 3", m.Len())
	}
	live := m.LiveSets()
	if len(live) != 3 || live[len(live)-1].Name != "a" {
		t.Fatalf("replacement did not move to the end: %+v", live)
	}

	// Empty names auto-assign.
	id3, err := m.Insert("", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := m.SetByID(id3); !ok || rec.Name != fmt.Sprintf("set-%d", id3) {
		t.Fatalf("auto-named insert = %+v, %v", rec, ok)
	}

	if ok, err := m.Delete("nope"); err != nil || ok {
		t.Fatalf("deleted a set that never existed: %v, %v", ok, err)
	}
	if ok, err := m.Delete("b"); err != nil || !ok {
		t.Fatalf("delete broken: %v, %v", ok, err)
	}
	if ok, err := m.Delete("b"); err != nil || ok {
		t.Fatalf("double-delete broken: %v, %v", ok, err)
	}

	// An auto-assigned name must never replace a user's explicitly named
	// set, even when the user squatted on the "set-<handle>" pattern.
	squat := fmt.Sprintf("set-%d", m.nextHandle+1)
	if _, err := m.Insert(squat, []string{"s1"}); err != nil {
		t.Fatal(err)
	}
	before := m.Len()
	autoID, err := m.Insert("", []string{"s2"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != before+1 {
		t.Fatalf("auto-named insert replaced a live set (live %d → %d)", before, m.Len())
	}
	if rec, ok := m.SetByID(autoID); !ok || rec.Name == squat {
		t.Fatalf("auto-name collision not stepped around: %+v", rec)
	}
	if rec, ok := m.SetByName(squat); !ok || rec.Elements[0] != "s1" {
		t.Fatalf("squatted set damaged: %+v, %v", rec, ok)
	}
}

func TestStaticSourceRejectsInsert(t *testing.T) {
	seed := []sets.Set{{Name: "a", Elements: []string{"x", "y"}}}
	m := NewManager(seed, func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewFuncIndex(dict.Snapshot(), sim.Exact{})
	}, testOpts(), Config{})
	if m.Mutable() {
		t.Fatal("static source reported mutable")
	}
	if _, err := m.Insert("b", []string{"z"}); err != ErrImmutable {
		t.Fatalf("insert on static source: %v", err)
	}
	// Deletes need no index support.
	if ok, err := m.Delete("a"); err != nil || !ok {
		t.Fatalf("delete on static source failed: %v, %v", ok, err)
	}
	if res, _, err := m.Search(context.Background(), []string{"x"}, 0); err != nil || len(res) != 0 {
		t.Fatalf("search after delete: %v, %v", res, err)
	}
}

// TestConcurrentSearchMutateCompact is the -race exercise of the
// acceptance criteria: searches run wait-free while a writer inserts,
// deletes, and compactions run in the background. Every search must see a
// consistent snapshot — results sorted, scores exact, no panics, no races.
func TestConcurrentSearchMutateCompact(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	nSeed := len(all) / 2
	m := NewManager(all[:nSeed], dynamicBuilder(ds.Model.Vector), testOpts(),
		Config{SealThreshold: 5, MaxSegments: 2}) // background compaction
	var stop atomic.Bool
	var searches atomic.Int64
	errs := make(chan error, 16)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				q := all[rng.Intn(len(all))].Elements
				res, _, err := m.Search(context.Background(), q, 0)
				if err != nil {
					errs <- err
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score+1e-9 {
						errs <- fmt.Errorf("unsorted results under mutation")
						return
					}
				}
				for _, r := range res {
					if !r.Verified {
						errs <- fmt.Errorf("unverified score under ExactScores")
						return
					}
				}
				searches.Add(1)
			}
		}(g)
	}

	writer := func() {
		rng := rand.New(rand.NewSource(99))
		deadline := time.Now().Add(400 * time.Millisecond)
		for time.Now().Before(deadline) {
			s := all[nSeed+rng.Intn(len(all)-nSeed)]
			switch rng.Intn(4) {
			case 0:
				m.Delete(s.Name)
			case 1:
				m.Compact()
			default:
				if _, err := m.Insert(s.Name, s.Elements); err != nil {
					errs <- err
					return
				}
			}
		}
	}
	writer()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if searches.Load() == 0 {
		t.Fatal("no searches completed while mutating")
	}

	// Quiesce and verify the final state still matches from-scratch.
	m.Flush()
	m.Compact()
	rows := make([]sets.Set, 0)
	for _, r := range m.LiveSets() {
		rows = append(rows, sets.Set{Name: r.Name, Elements: r.Elements})
	}
	assertEquivalent(t, "post-churn", m, rows, ds.Model.Vector, testOpts(), all[0].Elements)
}

func TestSearchContextCancel(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	m := NewManager(ds.Repo.Sets(), dynamicBuilder(ds.Model.Vector), testOpts(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.Search(ctx, ds.Repo.Set(0).Elements, 0); err != context.Canceled {
		t.Fatalf("canceled search returned %v", err)
	}
}

// TestPerRequestK holds a search that names its k to an engine built from
// scratch for that k — over sealed segments, tombstones and a live memtable
// — and the view it runs on to the snapshot's own engines: k is an argument
// of the search, and nothing is built for it.
func TestPerRequestK(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.01)
	all := ds.Repo.Sets()
	nSeed := len(all) / 2
	opts := testOpts()
	m := NewManager(all[:nSeed], dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 4, MaxSegments: 99})
	o := newOracle()
	for _, s := range all[:nSeed] {
		o.insert(s.Name, s.Elements)
	}
	for i, s := range all[nSeed : nSeed+10] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
		o.insert(s.Name, s.Elements)
		if i%3 == 2 { // a seed row and an earlier insert die
			for _, name := range []string{all[i].Name, all[nSeed+i-2].Name} {
				if _, err := m.Delete(name); err != nil {
					t.Fatal(err)
				}
				o.delete(name)
			}
		}
	}
	if sealed, mem, dead := m.Segments(); sealed < 2 || mem == 0 || dead == 0 {
		t.Fatalf("layout: %d sealed segments, %d memtable sets, %d tombstones; want ≥ 2, > 0, > 0", sealed, mem, dead)
	}
	rows := o.sets()
	for _, k := range []int{1, 3, 0, opts.K, 2 * opts.K, len(rows) + 7} {
		for qi, q := range [][]string{all[1].Elements, all[nSeed+1].Elements, all[len(all)-1].Elements} {
			assertEquivalentAtK(t, fmt.Sprintf("k=%d query %d", k, qi), m, rows, ds.Model.Vector, opts, q, k)
		}
		v := m.AcquireView(k)
		for i, s := range v.segs {
			if v.group.Engines[i] != s.engine() {
				t.Fatalf("k=%d: the view searches an engine of its own for segment %d, not the snapshot's", k, i)
			}
		}
	}
}
