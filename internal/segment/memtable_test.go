package segment

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
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
